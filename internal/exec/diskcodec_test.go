package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"cohera/internal/journal"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
)

// The version-0 writers. Releases before the binary disk format wrote
// JSON snapshots, log records and checkpoints; recovery still reads
// them, and these are the reference encoders that build old-format
// fixtures for the tests and FuzzDiskCodec below.

// saveSnapshotV0 writes db as a version-0 (JSON) snapshot.
func saveSnapshotV0(t testing.TB, db *Database) []byte {
	t.Helper()
	doc := snapshotV0{Version: 1}
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		st := snapshotTableV0{Schema: *walSchema(tbl.Def())}
		for _, c := range tbl.Def().Columns {
			if tbl.HasIndex(c.Name) {
				st.Indexes.Ordered = append(st.Indexes.Ordered, c.Name)
			}
			if tbl.HasHashIndex(c.Name) {
				st.Indexes.Hash = append(st.Indexes.Hash, c.Name)
			}
		}
		tbl.Scan(func(_ int64, row storage.Row) bool {
			st.Rows = append(st.Rows, wal.EncodeRow(row))
			return true
		})
		doc.Tables = append(doc.Tables, st)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("encoding version-0 snapshot: %v", err)
	}
	return b
}

// frameV0 frames r as one version-0 (JSON) log record.
func frameV0(t testing.TB, r wal.Record) []byte {
	t.Helper()
	if r.Values != nil {
		r.Row, r.Values = wal.EncodeRow(r.Values), nil
	}
	if r.OldValues != nil {
		r.Old, r.OldValues = wal.EncodeRow(r.OldValues), nil
	}
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encoding version-0 record: %v", err)
	}
	frame := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// checkpointFileV0 returns a version-0 (JSON) checkpoint file.
func checkpointFileV0(t testing.TB, lsn uint64, state []byte) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Version int             `json:"version"`
		LSN     uint64          `json:"lsn"`
		State   json.RawMessage `json:"state"`
	}{1, lsn, state})
	if err != nil {
		t.Fatalf("encoding version-0 checkpoint: %v", err)
	}
	return b
}

// rewriteLogV0 re-encodes the log in dir as version-0 frames, as an
// older release would have written it.
func rewriteLogV0(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, "wal.log")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, torn := wal.ScanRecords(b)
	if torn != 0 || len(recs) == 0 {
		t.Fatalf("log to rewrite: %d records, %d torn bytes", len(recs), torn)
	}
	var out []byte
	for _, r := range recs {
		out = append(out, frameV0(t, r)...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// payloadFormats lists the first payload byte of every frame in the
// log in dir.
func payloadFormats(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for off := 0; off+8 < len(b); off += 8 + int(binary.BigEndian.Uint32(b[off:])) {
		out = append(out, b[off+8])
	}
	return out
}

// fixtureDB writes a table through a WAL in dir: every value kind, an
// ordered and a hash index, and an insert/update/delete history.
func fixtureDB(t *testing.T, dir string) (*Database, *wal.Log) {
	t.Helper()
	db, l := newWALDB(t, dir)
	execSQL(t, db, "CREATE TABLE parts (sku TEXT NOT NULL, cat TEXT, qty INTEGER, score FLOAT, hot BOOLEAN, PRIMARY KEY (sku))")
	if err := db.CreateTableIndex("parts", "qty", false); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTableIndex("parts", "cat", true); err != nil {
		t.Fatal(err)
	}
	execSQL(t, db, "INSERT INTO parts (sku, cat, qty, score, hot) VALUES ('a', 'drill', 1, 0.5, TRUE), ('b', 'saw', 2, NULL, FALSE), ('c', 'saw', 3, 2.25, NULL)")
	execSQL(t, db, "UPDATE parts SET qty = 20, cat = 'drill' WHERE sku = 'b'")
	execSQL(t, db, "DELETE FROM parts WHERE sku = 'c'")
	def := schema.MustTable("prices", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true, FullText: true, Taxonomy: "mro"},
		{Name: "price", Kind: value.KindMoney},
		{Name: "lead", Kind: value.KindDuration},
	}, "sku")
	if err := db.LoadRows(def, []storage.Row{
		{value.NewString("a drill"), value.NewMoney(9950, "USD"), value.Days(2, value.BusinessDays)},
		{value.NewString("b saw"), value.Null, value.Null},
	}); err != nil {
		t.Fatal(err)
	}
	return db, l
}

type tableState struct {
	digest         storage.TableDigest
	ordered, hashd []string
}

// state captures what recovery must rebuild: each table's content
// digest and its declared indexes.
func state(t *testing.T, db *Database) map[string]tableState {
	t.Helper()
	out := make(map[string]tableState)
	for _, name := range db.TableNames() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		st := tableState{digest: tbl.Digest()}
		for _, c := range tbl.Def().Columns {
			if tbl.HasIndex(c.Name) {
				st.ordered = append(st.ordered, c.Name)
			}
			if tbl.HasHashIndex(c.Name) {
				st.hashd = append(st.hashd, c.Name)
			}
		}
		out[name] = st
	}
	return out
}

func sameState(t *testing.T, how string, got, want map[string]tableState) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: recovered %+v, want %+v", how, got, want)
	}
}

func closeLog(t *testing.T, l *wal.Log) {
	t.Helper()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// A log written entirely by an older release replays to the same
// tables.
func TestLegacyLogRecovers(t *testing.T) {
	dir := t.TempDir()
	db, l := fixtureDB(t, dir)
	want := state(t, db)
	closeLog(t, l)
	rewriteLogV0(t, dir)
	if f := payloadFormats(t, dir); f[0] != '{' || f[len(f)-1] != '{' {
		t.Fatalf("fixture not version 0: %q", f)
	}
	db2, l2 := newWALDB(t, dir)
	defer closeLog(t, l2)
	sameState(t, "version-0 log", state(t, db2), want)
}

// An upgrade without a checkpoint: an older release's log, continued
// by this one, replays both formats in order.
func TestMixedFormatLogRecovers(t *testing.T) {
	dir := t.TempDir()
	_, l := fixtureDB(t, dir)
	closeLog(t, l)
	rewriteLogV0(t, dir)
	db, l := newWALDB(t, dir)
	execSQL(t, db, "UPDATE parts SET score = 9.5 WHERE sku = 'a'")
	execSQL(t, db, "INSERT INTO parts (sku, cat, qty) VALUES ('d', 'saw', 4)")
	execSQL(t, db, "DELETE FROM prices WHERE sku = 'b saw'")
	want := state(t, db)
	closeLog(t, l)
	f := payloadFormats(t, dir)
	if f[0] != '{' || f[len(f)-1] != 1 {
		t.Fatalf("log is not version 0 then version 1: %q", f)
	}
	db2, l2 := newWALDB(t, dir)
	defer closeLog(t, l2)
	sameState(t, "mixed-format log", state(t, db2), want)
}

// A checkpoint written by an older release restores to the same
// tables, indexes included.
func TestLegacyCheckpointRecovers(t *testing.T) {
	dir := t.TempDir()
	db, l := fixtureDB(t, dir)
	want := state(t, db)
	snap, lsn := saveSnapshotV0(t, db), l.LSN()
	closeLog(t, l)
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), checkpointFileV0(t, lsn, snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "wal.log"), 0); err != nil {
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeLog(t, l2)
	db2 := NewDatabase()
	if st, err := db2.Recover(rec); err != nil || !st.Checkpoint || st.Replayed != 0 {
		t.Fatalf("Recover: %+v, %v", st, err)
	}
	sameState(t, "version-0 checkpoint", state(t, db2), want)
}

// A coherad -snapshot file written by an older release loads.
func TestLegacySnapshotFileLoads(t *testing.T) {
	db, l := fixtureDB(t, t.TempDir())
	defer closeLog(t, l)
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := os.WriteFile(path, saveSnapshotV0(t, db), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db2 := NewDatabase()
	if err := db2.LoadSnapshot(f); err != nil {
		t.Fatal(err)
	}
	sameState(t, "version-0 snapshot", state(t, db2), state(t, db))
}

// A hash index declared on a WAL-backed table survives checkpoint and
// restore, not only log replay.
func TestCheckpointKeepsHashIndex(t *testing.T) {
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	execSQL(t, db, "CREATE TABLE p (sku TEXT NOT NULL, cat TEXT, PRIMARY KEY (sku))")
	execSQL(t, db, "INSERT INTO p (sku, cat) VALUES ('a', 'drill'), ('b', 'saw')")
	if err := db.CreateTableIndex("p", "cat", true); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeLog(t, l)
	l2, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeLog(t, l2)
	db2 := NewDatabase()
	if st, err := db2.Recover(rec); err != nil || !st.Checkpoint || st.Replayed != 0 {
		t.Fatalf("Recover: %+v, %v", st, err)
	}
	tbl, err := db2.Table("p")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasHashIndex("cat") {
		t.Fatal("hash index on p.cat lost across checkpoint and restore")
	}
	if ids, err := tbl.LookupEqual("cat", value.NewString("saw")); err != nil || len(ids) != 1 {
		t.Fatalf("lookup through the restored index: %v, %v", ids, err)
	}
}

// nonFinite are the float bit patterns JSON cannot carry (and, for −0,
// silently flips): a NaN with a payload, ±Inf and negative zero.
var nonFinite = []float64{
	math.Float64frombits(0x7ff8_0000_0bad_f00d), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1.5,
}

// checkFloats asserts table m holds nonFinite bit for bit, keyed by
// position.
func checkFloats(t *testing.T, how string, db *Database) {
	t.Helper()
	tbl, err := db.Table("m")
	if err != nil {
		t.Fatalf("%s: %v", how, err)
	}
	if tbl.Len() != len(nonFinite) {
		t.Fatalf("%s: %d rows, want %d", how, tbl.Len(), len(nonFinite))
	}
	for i, f := range nonFinite {
		_, row, err := tbl.GetByKey(value.NewInt(int64(i)))
		if err != nil {
			t.Fatalf("%s: row %d: %v", how, i, err)
		}
		if got := math.Float64bits(row[1].Float()); got != math.Float64bits(f) {
			t.Fatalf("%s: row %d holds %#x, want %#x", how, i, got, math.Float64bits(f))
		}
	}
}

func TestNonFiniteFloatSurvivesRecovery(t *testing.T) {
	def := schema.MustTable("m", []schema.Column{
		{Name: "k", Kind: value.KindInt, NotNull: true},
		{Name: "f", Kind: value.KindFloat},
	}, "k")
	var rows []storage.Row
	for i, f := range nonFinite {
		rows = append(rows, storage.Row{value.NewInt(int64(i)), value.NewFloat(f)})
	}
	dir := t.TempDir()
	db, l := newWALDB(t, dir)
	if err := db.LoadRows(def, rows); err != nil {
		t.Fatalf("LoadRows: %v", err)
	}
	closeLog(t, l)

	// WAL replay.
	db2, l2 := newWALDB(t, dir)
	checkFloats(t, "log replay", db2)
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	closeLog(t, l2)

	// Checkpoint restore.
	l3, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeLog(t, l3)
	db3 := NewDatabase()
	if st, err := db3.Recover(rec); err != nil || !st.Checkpoint {
		t.Fatalf("Recover: %+v, %v", st, err)
	}
	checkFloats(t, "checkpoint restore", db3)

	// A journal intent carrying the same values.
	g := journal.New().Group("west-2", "m")
	var row storage.Row
	for _, f := range nonFinite {
		row = append(row, value.NewFloat(f))
	}
	down := errors.New("site down")
	_, err = g.Execute(journal.Intent{StmtID: "s1", Table: "m", Fragment: "f", Op: journal.OpUpsert, Row: row},
		func() error { return down }, func() error { return nil }, func(error) bool { return true })
	if !errors.Is(err, down) {
		t.Fatalf("Execute: %v", err)
	}
	g2 := journal.New().Group("west-2", "m")
	g2.SetBytes("f", g.Bytes("f"))
	var got journal.Intent
	if _, err := g2.Drain(context.Background(), func(it journal.Intent) error { got = it; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, f := range nonFinite {
		if len(got.Row) != len(row) || math.Float64bits(got.Row[i].Float()) != math.Float64bits(f) {
			t.Fatalf("journal intent value %d: %v, want %#x", i, got.Row, math.Float64bits(f))
		}
	}
}

// fuzzRow derives a row from fuzz bytes: each cell is a kind byte and
// that kind's payload, until the bytes run out.
func fuzzRow(data []byte) storage.Row {
	var row storage.Row
	take := func(n int) []byte {
		if len(data) < n {
			data = append(data, make([]byte, n-len(data))...)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	u64 := func() uint64 { return binary.LittleEndian.Uint64(take(8)) }
	str := func() string { return string(take(int(take(1)[0] % 16))) }
	for len(data) > 0 && len(row) < 16 {
		switch value.Kind(take(1)[0] % 8) {
		case value.KindNull:
			row = append(row, value.Null)
		case value.KindBool:
			row = append(row, value.NewBool(take(1)[0]&1 == 1))
		case value.KindInt:
			row = append(row, value.NewInt(int64(u64())))
		case value.KindFloat:
			row = append(row, value.NewFloat(math.Float64frombits(u64())))
		case value.KindString:
			row = append(row, value.NewString(str()))
		case value.KindMoney:
			row = append(row, value.NewMoney(int64(u64()), str()))
		case value.KindTime:
			row = append(row, value.NewTime(time.Unix(0, int64(u64()))))
		case value.KindDuration:
			row = append(row, value.NewDuration(time.Duration(u64()), value.DurationSemantics(str())))
		}
	}
	return row
}

// identicalRows compares rows bit for bit: kinds, payloads, float bits.
func identicalRows(a, b storage.Row) bool {
	return bytes.Equal(value.AppendRow(nil, a), value.AppendRow(nil, b))
}

// jsonSafe reports whether the version-0 format can carry row: finite
// floats and valid UTF-8 text only.
func jsonSafe(row storage.Row) bool {
	for _, v := range row {
		switch v.Kind() {
		case value.KindFloat:
			if math.IsNaN(v.Float()) || math.IsInf(v.Float(), 0) {
				return false
			}
		case value.KindString:
			if !utf8.ValidString(v.Str()) {
				return false
			}
		case value.KindMoney:
			if _, cur := v.Money(); !utf8.ValidString(cur) {
				return false
			}
		case value.KindDuration:
			if _, sem := v.Duration(); !utf8.ValidString(string(sem)) {
				return false
			}
		}
	}
	return true
}

// rowsEqualJSON compares rows by Equal, the most a JSON round trip
// keeps (−0 comes back as +0).
func rowsEqualJSON(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// fuzzTable returns a keyless table whose column kinds fit row (a NULL
// cell gets a TEXT column).
func fuzzTable(row storage.Row) *schema.Table {
	cols := make([]schema.Column, len(row))
	for i, v := range row {
		k := v.Kind()
		if k == value.KindNull {
			k = value.KindString
		}
		cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Kind: k}
	}
	return schema.MustTable("t", cols)
}

// FuzzDiskCodec: a row derived from the fuzz bytes round-trips bit for
// bit through all three disk formats — a WAL record replayed from a
// real log, a checkpoint snapshot, a journal intent — and decodes the
// same from the version-0 JSON reference wherever JSON can carry it.
// The raw bytes, fed to every decoder, never panic.
func FuzzDiskCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add(value.AppendRow(nil, storage.Row{value.NewString("sku-1"), value.NewInt(42)}))
	f.Add([]byte{byte(value.KindFloat), 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, byte(value.KindMoney), 1, 2, 3, 4, 5, 6, 7, 8, 3, 'u', 's', 'd'})
	f.Add([]byte{byte(value.KindFloat), 0, 0, 0, 0, 0, 0, 0, 0x80, byte(value.KindDuration), 9, 9, 9, 9, 9, 9, 9, 9, 8, 'b', 'u', 's', 'i', 'n', 'e', 's', 's'})
	f.Add([]byte("{\"version\":1,\"tables\":[]}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: every decoder errs or succeeds, never panics.
		d := value.NewDecoder(data)
		d.Row()
		wal.ScanRecords(data)
		if err := NewDatabase().LoadSnapshot(bytes.NewReader(data)); err == nil && len(data) > 0 && data[0] != 1 && data[0] != '{' {
			t.Fatalf("snapshot with format byte %#x loaded", data[0])
		}
		journal.New().Group("s", "t").SetBytes("f", data)

		row := fuzzRow(data)
		if len(row) == 0 {
			return
		}
		def := fuzzTable(row)

		// WAL record: logged by LoadRows, replayed by Recover.
		dir := t.TempDir()
		db, l := newWALDB(t, dir)
		if err := db.LoadRows(def, []storage.Row{row}); err != nil {
			t.Fatalf("LoadRows: %v", err)
		}
		closeLog(t, l)
		db2, l2 := newWALDB(t, dir)
		defer closeLog(t, l2)
		if got := onlyRow(t, db2); !identicalRows(got, row) {
			t.Fatalf("log replay: %v, want %v", got, row)
		}

		// Snapshot: SaveSnapshot then LoadSnapshot.
		var buf bytes.Buffer
		if err := db2.SaveSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		db3 := NewDatabase()
		if err := db3.LoadSnapshot(&buf); err != nil {
			t.Fatalf("LoadSnapshot: %v", err)
		}
		if got := onlyRow(t, db3); !identicalRows(got, row) {
			t.Fatalf("snapshot: %v, want %v", got, row)
		}

		// Journal intent.
		g := journal.New().Group("s", "t")
		if _, err := g.Execute(journal.Intent{StmtID: "s1", Table: "t", Fragment: "f", Op: journal.OpUpsert, Row: row},
			func() error { return errors.New("down") }, func() error { return nil }, func(error) bool { return true }); err == nil {
			t.Fatal("intent not deferred")
		}
		g2 := journal.New().Group("s", "t")
		g2.SetBytes("f", g.Bytes("f"))
		var it journal.Intent
		if _, err := g2.Drain(context.Background(), func(x journal.Intent) error { it = x; return nil }); err != nil {
			t.Fatal(err)
		}
		if !identicalRows(it.Row, row) {
			t.Fatalf("journal intent: %v, want %v", it.Row, row)
		}

		// The version-0 reference decodes to the same values.
		if !jsonSafe(row) {
			return
		}
		recs, _, _ := wal.ScanRecords(frameV0(t, wal.Record{LSN: 1, Kind: wal.KindPut, Table: "t", Values: row}))
		if len(recs) != 1 || !rowsEqualJSON(recs[0].Values, row) {
			t.Fatalf("version-0 record: %+v, want %v", recs, row)
		}
		db4 := NewDatabase()
		if err := db4.LoadSnapshot(bytes.NewReader(saveSnapshotV0(t, db3))); err != nil {
			t.Fatalf("version-0 snapshot: %v", err)
		}
		if got := onlyRow(t, db4); !rowsEqualJSON(got, row) {
			t.Fatalf("version-0 snapshot: %v, want %v", got, row)
		}
	})
}

// onlyRow returns the one row of table t.
func onlyRow(t *testing.T, db *Database) storage.Row {
	t.Helper()
	tbl, err := db.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	tbl.Scan(func(_ int64, r storage.Row) bool { rows = append(rows, r); return true })
	if len(rows) != 1 {
		t.Fatalf("table t holds %d rows", len(rows))
	}
	return rows[0]
}
