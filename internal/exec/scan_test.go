package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// TestSelectStreamBindsAtOpen: the streaming executor reports a column
// the table lacks when the stream is opened — even over an empty table,
// where no row would ever have reached the reference.
func TestSelectStreamBindsAtOpen(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE items (sku TEXT NOT NULL, qty INTEGER, PRIMARY KEY (sku))")
	for _, sql := range []string{
		"SELECT nosuch FROM items",
		"SELECT sku FROM items WHERE nosuch = 1",
		"SELECT sku FROM items i WHERE items.qty = 1",
	} {
		st, err := db.QueryStream(context.Background(), sql)
		if !errors.Is(err, plan.ErrUnknownColumn) {
			if err == nil {
				st.Close()
			}
			t.Errorf("%s: open err = %v, want ErrUnknownColumn", sql, err)
		}
	}
}

// TestScansBesideWriter runs the kernel's three scan shapes — plain,
// filtered on unindexed columns, and a text predicate whose hit set comes
// from the table's own inverted index — against a writer that inserts,
// updates and deletes the whole time, and holds every scan to the
// snapshot rules:
//
//   - a row inserted after the scan opened is not seen;
//   - a row present at open is seen unless the writer deleted it, at
//     most once, in ascending id order;
//   - a row is seen whole: the writer keeps a = b in every version it
//     stores, so a scan that caught half an update would see a != b.
//
// A scan's predicate runs under the table's read latch; if it called
// back into the table (the text predicate is the one that could) a
// reader would queue behind the waiting writer it blocks. The deadline
// turns that deadlock into a failure.
func TestScansBesideWriter(t *testing.T) {
	const (
		base     = 600 // rows present before any scan opens; never deleted
		rounds   = 40
		deadline = 30 * time.Second
	)
	db := NewDatabase()
	tbl, err := db.CreateTable(schema.MustTable("t", []schema.Column{
		{Name: "k", Kind: value.KindString, NotNull: true},
		{Name: "a", Kind: value.KindInt},
		{Name: "b", Kind: value.KindInt},
		{Name: "note", Kind: value.KindString, FullText: true},
	}, "k"))
	if err != nil {
		t.Fatal(err)
	}
	newRow := func(k string, v int64) storage.Row {
		return storage.Row{value.NewString(k), value.NewInt(v), value.NewInt(v), value.NewString("widget gasket")}
	}
	for i := 0; i < base; i++ {
		if _, err := tbl.Insert(newRow(fmt.Sprintf("base-%04d", i), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// heapEnd is the highest live id right now.
	heapEnd := func() (end int64) {
		tbl.Cursor().Next(1<<30, func(id int64, _ storage.Row) bool { end = id; return true })
		return end
	}

	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		var churn []int64
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := tbl.Insert(newRow(fmt.Sprintf("churn-%07d", i), int64(i)))
			if err != nil {
				t.Errorf("insert: %v", err)
				return
			}
			churn = append(churn, id)
			// Rewrite a base row: both halves move together.
			if err := tbl.Update(int64(i%base)+1, newRow(fmt.Sprintf("base-%04d", i%base), int64(i+base))); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if len(churn) > 300 { // enough deletes to keep compaction running
				if err := tbl.Delete(churn[0]); err != nil {
					t.Errorf("delete: %v", err)
					return
				}
				churn = churn[1:]
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var readers sync.WaitGroup
	for _, q := range []struct {
		sql string
		// An UPDATE takes a row out of the inverted index and puts it
		// back under one write latch, but a text search reads the index
		// under the index's own lock: the one row being rewritten may be
		// missing from a hit set.
		mayMiss int
	}{
		{"SELECT _rowid, a, b FROM t", 0},
		{"SELECT _rowid, a, b FROM t WHERE a >= 0 AND b >= 0", 0},
		{"SELECT _rowid, a, b FROM t WHERE MATCHES(note, 'gasket')", 1},
	} {
		q := q
		readers.Add(1)
		go func() {
			defer readers.Done()
			for round := 0; round < rounds; round++ {
				st, err := db.QueryStream(ctx, q.sql)
				if err != nil {
					t.Errorf("%s: %v", q.sql, err)
					return
				}
				// The scan's snapshot is fixed; whatever the heap holds
				// now bounds it from above.
				end := heapEnd()
				rows, err := storage.CollectRows(st)
				if err != nil {
					t.Errorf("%s: %v", q.sql, err)
					return
				}
				last, baseSeen := int64(0), 0
				for _, r := range rows {
					id := r[0].Int()
					switch {
					case id <= last:
						t.Errorf("%s: id %d after %d: out of order or seen twice", q.sql, id, last)
						return
					case id > end:
						t.Errorf("%s: saw id %d, inserted after the scan opened (heap ended at %d)", q.sql, id, end)
						return
					case r[1].Int() != r[2].Int():
						t.Errorf("%s: torn row %d: a=%d b=%d", q.sql, id, r[1].Int(), r[2].Int())
						return
					}
					last = id
					if id <= base {
						baseSeen++
					}
				}
				if baseSeen < base-q.mayMiss {
					t.Errorf("%s: saw %d of the %d rows that were never deleted", q.sql, baseSeen, base)
					return
				}
			}
		}()
	}
	readersDone := make(chan struct{})
	go func() {
		defer close(readersDone)
		readers.Wait()
	}()
	select {
	case <-readersDone:
	case <-ctx.Done():
		t.Error("scans beside a writer did not finish before the deadline: deadlock")
	}
	close(stop)
	select {
	case <-writerDone:
	case <-time.After(deadline):
		t.Fatal("writer did not stop: deadlock")
	}
}
