package exec

import (
	"math"
	"testing"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

func newWALDB(t *testing.T, dir string) (*Database, *wal.Log) {
	t.Helper()
	l, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	db := NewDatabase()
	if _, err := db.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	db.AttachWAL(l)
	return db, l
}

func execSQL(t *testing.T, db *Database, sql string) {
	t.Helper()
	if _, err := db.Exec(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func digest(t *testing.T, db *Database, table string) uint64 {
	t.Helper()
	d, err := db.TableDigest(table)
	if err != nil {
		t.Fatalf("digest %s: %v", table, err)
	}
	return d.Hash
}

func TestRecoverReplaysDML(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	execSQL(t, db, "CREATE TABLE parts (sku TEXT NOT NULL, price INTEGER, PRIMARY KEY (sku))")
	execSQL(t, db, "INSERT INTO parts (sku, price) VALUES ('a', 1), ('b', 2), ('c', 3)")
	execSQL(t, db, "UPDATE parts SET price = 20 WHERE sku = 'b'")
	execSQL(t, db, "DELETE FROM parts WHERE sku = 'c'")
	want := digest(t, db, "parts")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	db2 := NewDatabase()
	st, err := db2.Recover(rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if st.Checkpoint || st.Replayed == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := digest(t, db2, "parts"); got != want {
		t.Fatalf("digest after replay = %x, want %x", got, want)
	}
	res, err := db2.Exec("SELECT price FROM parts WHERE sku = 'b'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 {
		t.Fatalf("replayed update lost: %v %v", res, err)
	}
	if res, _ := db2.Exec("SELECT sku FROM parts WHERE sku = 'c'"); len(res.Rows) != 0 {
		t.Fatal("replayed delete lost")
	}
}

func TestRecoverFromCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	execSQL(t, db, "CREATE TABLE parts (sku TEXT NOT NULL, price INTEGER, PRIMARY KEY (sku))")
	if err := db.CreateTableIndex("parts", "sku", false); err != nil {
		t.Fatalf("CreateTableIndex: %v", err)
	}
	execSQL(t, db, "INSERT INTO parts (sku, price) VALUES ('a', 1), ('b', 2)")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	execSQL(t, db, "INSERT INTO parts (sku, price) VALUES ('d', 4)")
	execSQL(t, db, "UPDATE parts SET price = 10 WHERE sku = 'a'")
	want := digest(t, db, "parts")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	db2 := NewDatabase()
	st, err := db2.Recover(rec)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !st.Checkpoint {
		t.Fatalf("no checkpoint restored: %+v", st)
	}
	if got := digest(t, db2, "parts"); got != want {
		t.Fatalf("digest = %x, want %x", got, want)
	}
	tbl, err := db2.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("sku") {
		t.Fatal("index declaration lost across checkpoint")
	}
}

func TestRecoverKeylessTableUpdateDelete(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	execSQL(t, db, "CREATE TABLE notes (body TEXT, n INTEGER)")
	execSQL(t, db, "INSERT INTO notes (body, n) VALUES ('x', 1), ('x', 1), ('y', 2)")
	execSQL(t, db, "UPDATE notes SET n = 9 WHERE body = 'y'")
	execSQL(t, db, "DELETE FROM notes WHERE n = 1")
	want := digest(t, db, "notes")
	wantLen := mustLen(t, db, "notes")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	db2 := NewDatabase()
	if _, err := db2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := digest(t, db2, "notes"); got != want {
		t.Fatalf("digest = %x, want %x", got, want)
	}
	if got := mustLen(t, db2, "notes"); got != wantLen {
		t.Fatalf("len = %d, want %d", got, wantLen)
	}
}

// TestReplayMatchesKeylessRowsBitForBit: a keyless table's WAL records
// find their row by its whole image, which is lossless, so a delete of
// −0 removes the −0 row and not the +0 row that Equal (and the
// equality key) cannot tell from it.
func TestReplayMatchesKeylessRowsBitForBit(t *testing.T) {
	db := NewDatabase()
	def := schema.MustTable("m", []schema.Column{{Name: "w", Kind: value.KindFloat}})
	tbl, err := db.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	negZero := value.NewFloat(math.Copysign(0, -1))
	for _, w := range []value.Value{value.NewFloat(0), negZero} {
		if _, err := tbl.Insert(storage.Row{w}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.applyRecord(wal.Record{Kind: wal.KindDel, Table: "m", Values: storage.Row{negZero}}); err != nil {
		t.Fatal(err)
	}
	var left []float64
	tbl.Scan(func(_ int64, r storage.Row) bool { left = append(left, r[0].Float()); return true })
	if len(left) != 1 || math.Signbit(left[0]) {
		t.Fatalf("after replaying the delete of -0 the table holds %v, want only +0", left)
	}
}

func mustLen(t *testing.T, db *Database, table string) int {
	t.Helper()
	tbl, err := db.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.Len()
}

func TestDurableRowAPIs(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	def, err := schema.NewTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "price", Kind: value.KindInt},
	}, "sku")
	if err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{value.NewString("a"), value.NewInt(1)},
		{value.NewString("b"), value.NewInt(2)},
	}
	if err := db.LoadRows(def, rows); err != nil {
		t.Fatalf("LoadRows: %v", err)
	}
	if err := db.UpsertRow(def, storage.Row{value.NewString("b"), value.NewInt(22)}); err != nil {
		t.Fatalf("UpsertRow: %v", err)
	}
	if err := db.RestoreRows(def, true, nil, rows); err != nil {
		t.Fatalf("RestoreRows: %v", err)
	}
	want := digest(t, db, "parts")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	db2 := NewDatabase()
	if _, err := db2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := digest(t, db2, "parts"); got != want {
		t.Fatalf("digest = %x, want %x", got, want)
	}
	if got := mustLen(t, db2, "parts"); got != 2 {
		t.Fatalf("len = %d, want 2 (truncate must have replayed)", got)
	}
}

func TestRecoverAfterAttachRejected(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	defer l.Close()
	if _, err := db.Recover(&wal.Recovered{}); err == nil {
		t.Fatal("Recover after AttachWAL must fail")
	}
}
