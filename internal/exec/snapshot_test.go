package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"cohera/internal/ir"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := NewDatabase()
	def := schema.MustTable("catalog", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true, Taxonomy: "mro"},
		{Name: "price", Kind: value.KindMoney},
		{Name: "at", Kind: value.KindTime},
		{Name: "lead", Kind: value.KindDuration},
		{Name: "hot", Kind: value.KindBool},
		{Name: "score", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}, "sku")
	tbl, err := db.CreateTable(def)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	when := time.Date(2001, 5, 21, 9, 30, 0, 0, time.UTC)
	rows := []storage.Row{
		{value.NewString("P1"), value.NewString("cordless drill"),
			value.NewMoney(9950, "USD"), value.NewTime(when),
			value.Days(2, value.BusinessDays), value.NewBool(true),
			value.NewFloat(4.5), value.NewInt(10)},
		{value.NewString("P2"), value.Null, value.Null, value.Null,
			value.Null, value.Null, value.Null, value.NewInt(3)},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	t2, err := db2.Table("catalog")
	if err != nil {
		t.Fatal(err)
	}
	if t2.Len() != 2 {
		t.Fatalf("restored rows = %d", t2.Len())
	}
	// Schema details survive.
	c, _ := t2.Def().Column("name")
	if !c.FullText || c.Taxonomy != "mro" {
		t.Errorf("column metadata lost: %+v", c)
	}
	if t2.Def().Key[0] != "sku" {
		t.Errorf("key lost: %v", t2.Def().Key)
	}
	// Indexes rebuilt and used.
	if !t2.HasIndex("qty") {
		t.Error("ordered index lost")
	}
	// Full value fidelity.
	_, r1, err := t2.GetByKey(value.NewString("P1"))
	if err != nil {
		t.Fatal(err)
	}
	if m, cur := r1[2].Money(); m != 9950 || cur != "USD" {
		t.Errorf("money = %d %s", m, cur)
	}
	if !r1[3].Time().Equal(when) {
		t.Errorf("time = %v", r1[3])
	}
	if d, sem := r1[4].Duration(); d != 48*time.Hour || sem != value.BusinessDays {
		t.Errorf("duration = %v %v", d, sem)
	}
	if !r1[5].Bool() || r1[6].Float() != 4.5 {
		t.Errorf("bool/float = %v", r1)
	}
	// NULLs stay NULL.
	_, r2, _ := t2.GetByKey(value.NewString("P2"))
	if !r2[1].IsNull() || !r2[4].IsNull() {
		t.Errorf("nulls lost: %v", r2)
	}
	// Full-text index rebuilt (FullText flag → inverted index on load).
	hits, err := t2.TextSearch("name", "drill", ir.SearchOptions{})
	if err != nil || len(hits) != 1 {
		t.Errorf("text search after restore = %v, %v", hits, err)
	}
	// Queries behave identically.
	res, err := db2.Exec("SELECT sku FROM catalog WHERE qty = 10")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "P1" {
		t.Errorf("query after restore = %v, %v", res, err)
	}
}

func TestSnapshotErrors(t *testing.T) {
	db := NewDatabase()
	if err := db.LoadSnapshot(strings.NewReader("not json")); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := db.LoadSnapshot(strings.NewReader(`{"version":9}`)); err == nil {
		t.Error("unknown version should fail")
	}
	// Loading into a database that already has the table fails cleanly.
	demo := demoDB(t)
	var buf bytes.Buffer
	if err := demo.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := demo.LoadSnapshot(&buf); err == nil {
		t.Error("load over existing tables should fail")
	}
}

// A FLOAT key holding both 0 and -0 was two rows under releases that
// keyed the zeros apart. Their snapshot has no later row to keep, so
// restore fails, typed, and names the cause; a checkpoint restores
// through the same loader.
func TestSnapshotWithBothZeroKeysFailsRestore(t *testing.T) {
	def := schema.MustTable("m", []schema.Column{
		{Name: "w", Kind: value.KindFloat, NotNull: true},
		{Name: "note", Kind: value.KindString},
	}, "w")
	file := func(keys ...float64) []byte {
		b := binary.AppendUvarint([]byte{snapshotBinary}, 1)
		b = wal.AppendSchema(b, walSchema(def))
		b = appendNames(appendNames(b, nil), nil)
		b = binary.AppendUvarint(b, uint64(len(keys)))
		for _, k := range keys {
			b = value.AppendBinary(b, value.NewFloat(k))
			b = value.AppendBinary(b, value.NewString("row"))
		}
		return b
	}
	err := NewDatabase().LoadSnapshot(bytes.NewReader(file(0, math.Copysign(0, -1))))
	if !errors.Is(err, storage.ErrDuplicateKey) || !strings.Contains(err.Error(), `key column "w" holds both 0 and -0`) {
		t.Fatalf("restore of both zeros = %v, want a duplicate key naming 0 and -0", err)
	}
	db := NewDatabase()
	if err := db.LoadSnapshot(bytes.NewReader(file(math.Copysign(0, -1), 1))); err != nil {
		t.Fatalf("restore of one zero: %v", err)
	}
	if res := exec1(t, db, "SELECT note FROM m WHERE w = 0"); len(res.Rows) != 1 {
		t.Errorf("w = 0 after restore = %v, want the -0 row", res.Rows)
	}
}

func TestSnapshotEmptyDatabase(t *testing.T) {
	db := NewDatabase()
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if len(db2.TableNames()) != 0 {
		t.Error("empty snapshot grew tables")
	}
}
