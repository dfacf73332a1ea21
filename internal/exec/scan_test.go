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
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// TestAccessPathIntersectsRanges: every sargable conjunct on the indexed
// column narrows the one index lookup, so the candidates are the rows in
// the range — not everything above its lower bound, with the upper bound
// left to the residual.
func TestAccessPathIntersectsRanges(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE items (sku TEXT NOT NULL, qty INTEGER, PRIMARY KEY (sku))")
	for i := 0; i < 100; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO items (sku, qty) VALUES ('S%03d', %d)", i, i%10))
	}
	if err := db.CreateTableIndex("items", "sku", false); err != nil {
		t.Fatal(err)
	}
	tbl, err := db.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		where      string
		candidates int    // ids the index hands the scan
		residual   string // what the scan must still check
		rows       int    // rows the statement returns
	}{
		{"sku >= 'S010' AND sku <= 'S019'", 10, "", 10},
		// Exclusive bounds: the inclusive lookup may hand over the bound
		// row itself; the residual keeps the conjunct to drop it.
		{"sku >= 'S010' AND sku < 'S020'", 11, "(sku < 'S020')", 10},
		{"sku > 'S010' AND sku < 'S020' AND qty = 5", 11, "(((sku > 'S010') AND (sku < 'S020')) AND (qty = 5))", 1},
		{"sku BETWEEN 'S000' AND 'S050' AND sku >= 'S040' AND 'S045' >= sku", 6, "", 6},
		{"sku >= 'S050' AND sku = 'S060'", 1, "", 1},
		{"sku = 'S060' AND sku = 'S061'", 0, "", 0},
		{"sku > 'S020' AND sku < 'S010'", 0, "((sku > 'S020') AND (sku < 'S010'))", 0},
		// A bound that cannot be ordered against the others stays out of
		// the lookup and in the residual.
		{"sku >= 'S090' AND sku <= 99", 10, "(sku <= 99)", -1},
	} {
		where, err := sqlparse.ParseExpr(tc.where)
		if err != nil {
			t.Fatal(err)
		}
		ids, used, residual := db.accessPath(tbl, where)
		if !used {
			t.Errorf("%s: index not used", tc.where)
			continue
		}
		if len(ids) != tc.candidates {
			t.Errorf("%s: %d candidate ids, want %d", tc.where, len(ids), tc.candidates)
		}
		got := ""
		if residual != nil {
			got = residual.String()
		}
		if got != tc.residual {
			t.Errorf("%s: residual %q, want %q", tc.where, got, tc.residual)
		}
		if tc.rows < 0 {
			continue // the statement is a type error either way
		}
		for _, run := range []func(string) (*Result, error){db.Exec, func(sql string) (*Result, error) {
			st, err := db.QueryStream(context.Background(), sql)
			if err != nil {
				return nil, err
			}
			rows, err := storage.CollectRows(st)
			return &Result{Rows: rows}, err
		}} {
			res, err := run("SELECT sku FROM items WHERE " + tc.where)
			if err != nil || len(res.Rows) != tc.rows {
				t.Errorf("%s: %d rows, %v; want %d", tc.where, len(res.Rows), err, tc.rows)
			}
		}
	}
	// A NULL bound is true of no row; it must not read as "unbounded".
	for _, where := range []string{"sku >= NULL", "sku = NULL", "sku BETWEEN 'S000' AND NULL"} {
		if res, err := db.Exec("SELECT sku FROM items WHERE " + where); err != nil || len(res.Rows) != 0 {
			t.Errorf("%s: %d rows, %v; want none", where, len(res.Rows), err)
		}
	}
}

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
