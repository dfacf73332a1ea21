package storage

import (
	"fmt"
	"math/rand"
	"testing"
)

// walk drains a cursor in batches of max and returns the ids it saw and
// the qty column of each row as seen under the latch.
func walk(c *Cursor, max int) (ids, qtys []int64) {
	for more := true; more; {
		more = c.Next(max, func(id int64, row Row) bool {
			ids = append(ids, id)
			qtys = append(qtys, row[3].Int())
			return true
		})
	}
	return ids, qtys
}

func loadParts(t *testing.T, n int) (*Table, []int64) {
	t.Helper()
	tbl := NewTable(partsDef())
	ids := make([]int64, n)
	for i := range ids {
		id, err := tbl.Insert(row(fmt.Sprintf("SKU-%04d", i), "part", 100, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return tbl, ids
}

func TestCursorOrderAndBatches(t *testing.T) {
	tbl, ids := loadParts(t, 10)
	for _, max := range []int{1, 3, 10, 100} {
		got, _ := walk(tbl.Cursor(), max)
		if fmt.Sprint(got) != fmt.Sprint(ids) {
			t.Errorf("batch %d: walked %v, want %v", max, got, ids)
		}
	}
	// Each call visits at most max rows and reports whether more remain.
	c := tbl.Cursor()
	n := 0
	if more := c.Next(4, func(int64, Row) bool { n++; return true }); !more || n != 4 {
		t.Fatalf("first batch visited %d rows, more=%v; want 4, true", n, more)
	}
	// A visitor that stops ends the walk.
	if more := c.Next(4, func(int64, Row) bool { return false }); more {
		t.Fatal("Next reported more after the visitor stopped")
	}
}

// TestCursorSnapshotRules pins what a scan opened at one moment sees of
// the writes that follow: no later insert, no deleted row, an updated
// row in its new version.
func TestCursorSnapshotRules(t *testing.T) {
	tbl, ids := loadParts(t, 6)
	c := tbl.Cursor()
	var seen []int64
	c.Next(2, func(id int64, _ Row) bool { seen = append(seen, id); return true })

	if _, err := tbl.Insert(row("SKU-NEW", "late", 1, 99)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ids[3]); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Update(ids[4], row("SKU-0004", "part", 100, 400)); err != nil {
		t.Fatal(err)
	}
	rest, qtys := walk(c, 2)
	seen = append(seen, rest...)
	want := []int64{ids[0], ids[1], ids[2], ids[4], ids[5]}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("walked %v, want %v", seen, want)
	}
	if qtys[1] != 400 {
		t.Errorf("updated row seen with qty %d, want its new version 400", qtys[1])
	}
	// A cursor opened now sees the insert.
	if all, _ := walk(tbl.Cursor(), 100); len(all) != 6 {
		t.Errorf("fresh cursor walked %d rows, want 6", len(all))
	}
}

// TestHeapCompaction deletes most of a table — enough to trigger
// compaction several times, some of it between the batches of an open
// cursor — and checks every survivor stays reachable by id, by scan and
// by index, in order.
func TestHeapCompaction(t *testing.T) {
	tbl, ids := loadParts(t, 1000)
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	c := tbl.Cursor()
	var seen []int64
	c.Next(100, func(id int64, _ Row) bool { seen = append(seen, id); return true })

	rng := rand.New(rand.NewSource(7))
	live := make(map[int64]bool, len(ids))
	for _, id := range ids {
		live[id] = true
	}
	for _, i := range rng.Perm(len(ids))[:900] {
		if err := tbl.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
		delete(live, ids[i])
	}
	if tbl.Len() != 100 {
		t.Fatalf("Len = %d, want 100", tbl.Len())
	}
	if len(tbl.rows) >= 500 {
		t.Errorf("heap still holds %d slots for 100 rows: no compaction", len(tbl.rows))
	}
	rest, _ := walk(c, 100)
	for i, id := range rest {
		if !live[id] || id <= seen[len(seen)-1] || (i > 0 && id <= rest[i-1]) {
			t.Fatalf("open cursor walked id %d out of order or deleted (after %v)", id, seen[len(seen)-1])
		}
	}
	n := 0
	for _, id := range ids {
		if id > seen[len(seen)-1] && live[id] {
			n++
		}
	}
	if len(rest) != n {
		t.Errorf("open cursor walked %d survivors past id %d, want %d", len(rest), seen[len(seen)-1], n)
	}
	for _, id := range ids {
		r, err := tbl.Get(id)
		if live[id] != (err == nil) {
			t.Fatalf("Get(%d) err=%v, live=%v", id, err, live[id])
		}
		if err == nil && r[3].Int() != id-1 {
			t.Fatalf("Get(%d) returned the row with qty %d", id, r[3].Int())
		}
	}
	// Ids keep ascending past a compaction.
	id, err := tbl.Insert(row("SKU-TAIL", "tail", 1, 1))
	if err != nil || id != int64(len(ids))+1 {
		t.Fatalf("insert after compaction got id %d, %v", id, err)
	}
	all, _ := walk(tbl.Cursor(), 64)
	if len(all) != 101 || all[len(all)-1] != id {
		t.Fatalf("scan after compaction walked %d rows ending at %d", len(all), all[len(all)-1])
	}
}

func TestCursorOver(t *testing.T) {
	tbl, ids := loadParts(t, 8)
	if err := tbl.Delete(ids[5]); err != nil {
		t.Fatal(err)
	}
	// Candidates in index order, one deleted, one that never existed.
	got, _ := walk(tbl.CursorOver([]int64{ids[6], ids[1], ids[5], 999, ids[3]}), 2)
	want := []int64{ids[1], ids[3], ids[6]}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	// No candidates is an empty scan, not a full one.
	if got, _ := walk(tbl.CursorOver(nil), 2); len(got) != 0 {
		t.Fatalf("empty candidate list walked %v", got)
	}
}
