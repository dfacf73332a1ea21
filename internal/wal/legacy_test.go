package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"cohera/internal/value"
)

// The version-0 writers. Releases before the binary format wrote JSON
// records and checkpoints; recovery still reads them, and these are
// the reference encoders that produce old-format fixtures.

// appendFrameV0 appends r to dst as one version-0 (JSON) frame.
func appendFrameV0(t testing.TB, dst []byte, r Record) []byte {
	t.Helper()
	if r.Values != nil {
		r.Row, r.Values = EncodeRow(r.Values), nil
	}
	if r.OldValues != nil {
		r.Old, r.OldValues = EncodeRow(r.OldValues), nil
	}
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("encoding version-0 record: %v", err)
	}
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// checkpointFileV0 returns a version-0 (JSON) checkpoint file.
func checkpointFileV0(t testing.TB, lsn uint64, state []byte, journal []JournalFrag) []byte {
	t.Helper()
	b, err := json.Marshal(checkpointV0{Version: 1, LSN: lsn, State: state, Journal: journal})
	if err != nil {
		t.Fatalf("encoding version-0 checkpoint: %v", err)
	}
	return b
}

// legacyRecords is one record of each kind, with every value kind.
func legacyRecords() []Record {
	row := []value.Value{value.NewString("a"), value.NewInt(-7), value.NewFloat(2.5),
		value.NewBool(true), value.Null, value.NewMoney(995, "EUR")}
	return []Record{
		{LSN: 1, Kind: KindCreate, Table: "parts", Schema: &TableSchema{
			Name: "parts", Key: []string{"sku"},
			Columns: []ColumnSchema{{Name: "sku", Kind: "TEXT", NotNull: true, FullText: true, Taxonomy: "mro"}},
		}},
		{LSN: 2, Kind: KindIndex, Table: "parts", Column: "sku", Hash: true},
		{LSN: 3, Kind: KindPut, Table: "parts", Values: row},
		{LSN: 4, Kind: KindUpd, Table: "parts", OldValues: row, Values: row[:2]},
		{LSN: 5, Kind: KindDel, Table: "parts", Values: row[:1]},
		{LSN: 6, Kind: KindTrunc, Table: "parts"},
		{LSN: 7, Kind: KindJFrame, Site: "west-2", Table: "parts", Frag: "f1", Frame: []byte{0, 1, '{'}},
		{LSN: 8, Kind: KindJReset, Site: "west-2", Table: "parts"},
	}
}

// sameRecord compares decoded records; row images by Equal.
func sameRecord(a, b Record) bool {
	rowsEqual := func(x, y []value.Value) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if !x[i].Equal(y[i]) {
				return false
			}
		}
		return true
	}
	ja, _ := json.Marshal(Record{LSN: a.LSN, Kind: a.Kind, Table: a.Table, Schema: a.Schema, Column: a.Column,
		Hash: a.Hash, Site: a.Site, Frag: a.Frag, Frame: a.Frame})
	jb, _ := json.Marshal(Record{LSN: b.LSN, Kind: b.Kind, Table: b.Table, Schema: b.Schema, Column: b.Column,
		Hash: b.Hash, Site: b.Site, Frag: b.Frag, Frame: b.Frame})
	return bytes.Equal(ja, jb) && rowsEqual(a.Values, b.Values) && rowsEqual(a.OldValues, b.OldValues)
}

// A log written by an older release (version-0 frames), then appended
// to by this one (version-1 frames) without a checkpoint in between,
// scans to the records both wrote.
func TestMixedFormatLogScans(t *testing.T) {
	want := legacyRecords()
	var img []byte
	for _, r := range want[:4] {
		img = appendFrameV0(t, img, r)
	}
	for _, r := range want[4:] {
		var err error
		if img, err = appendFrame(img, r); err != nil {
			t.Fatal(err)
		}
	}
	got, good, torn := ScanRecords(img)
	if len(got) != len(want) || good != len(img) || torn != 0 {
		t.Fatalf("scanned %d/%d records, torn %d", len(got), len(want), torn)
	}
	for i := range want {
		if !sameRecord(got[i], want[i]) {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
		if got[i].Row != nil || got[i].Old != nil {
			t.Errorf("record %d carries Val rows after decoding", i)
		}
	}
}

// Both formats decode every record kind to the same record.
func TestFormatsDecodeAlike(t *testing.T) {
	for _, r := range legacyRecords() {
		v1, err := appendFrame(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		a, _, okA := readFrame(v1, 0)
		b, _, okB := readFrame(appendFrameV0(t, nil, r), 0)
		if !okA || !okB || !sameRecord(a, b) || !sameRecord(a, r) {
			t.Errorf("%s: binary %+v (%v), json %+v (%v)", r.Kind, a, okA, b, okB)
		}
	}
}

func TestLegacyCheckpointOpens(t *testing.T) {
	dir := t.TempDir()
	state := []byte(`{"version":1,"tables":[]}`)
	journal := []JournalFrag{{Site: "west-2", Table: "parts", Frag: "f1", Bytes: []byte("frame")}}
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), checkpointFileV0(t, 9, state, journal), 0o644); err != nil {
		t.Fatal(err)
	}
	var img []byte
	for _, r := range legacyRecords()[2:4] {
		r.LSN += 8
		img = appendFrameV0(t, img, r)
	}
	if err := os.WriteFile(filepath.Join(dir, logFileName), img, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if !rec.HasCheckpoint || rec.CheckpointLSN != 9 || !bytes.Equal(rec.State, state) {
		t.Fatalf("checkpoint: has %v lsn %d state %s", rec.HasCheckpoint, rec.CheckpointLSN, rec.State)
	}
	if len(rec.Journal) != 1 || !bytes.Equal(rec.Journal[0].Bytes, []byte("frame")) {
		t.Fatalf("journal: %+v", rec.Journal)
	}
	// Both records (LSNs 11 and 12) are past the checkpoint: both replay.
	if len(rec.Records) != 2 || rec.Records[0].LSN != 11 {
		t.Fatalf("records past the checkpoint: %+v", rec.Records)
	}
}

// Append refuses what replay would stop at, so one bad record can
// never truncate every later one away at the next restart.
func TestAppendRejectsUnreplayableRecord(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncNone})
	for name, r := range map[string]Record{
		"unknown kind":        {Kind: "merge", Table: "parts"},
		"create, no schema":   {Kind: KindCreate, Table: "parts"},
		"unknown value kind":  {Kind: KindPut, Table: "parts", Row: []Val{{K: "blob"}}},
		"row spelled twice":   {Kind: KindPut, Table: "parts", Row: []Val{{K: "null"}}, Values: []value.Value{value.Null}},
		"oversized row image": {Kind: KindPut, Table: "parts", Values: []value.Value{value.NewString(string(make([]byte, maxPayload)))}},
	} {
		err := l.Locked(func(a *Appender) error { return a.Append(r) })
		if err == nil {
			t.Errorf("%s: appended", name)
		}
	}
	// A record built the old way, with Val rows, is still accepted.
	if err := l.Locked(func(a *Appender) error {
		return a.Append(Record{Kind: KindDel, Table: "catalog", Row: []Val{{K: "string", S: "DELETE"}}})
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 || rec.Records[0].LSN != 1 || rec.Records[0].Values[0].Str() != "DELETE" {
		t.Fatalf("recovered %+v", rec.Records)
	}
}

func TestCorruptCheckpointRefusesToOpen(t *testing.T) {
	good := appendCheckpointHead(nil, 3, []JournalFrag{{Site: "s", Table: "t", Frag: "f", Bytes: []byte("x")}})
	good = append(good, "state"...)
	sealCheckpoint(good)
	crcBroken := append([]byte(nil), good...)
	crcBroken[len(crcBroken)-1] ^= 0x01
	badBody := appendCheckpointHead(nil, 3, nil)
	badBody = append(badBody[:len(badBody)-1], 0xff) // fragment count runs past the end
	sealCheckpoint(badBody)
	for name, b := range map[string][]byte{
		"not json":        []byte("{not json"),
		"json version 9":  []byte(`{"version":9,"lsn":1}`),
		"crc broken":      crcBroken,
		"body unreadable": badBody,
		"header only":     good[:3],
		"unknown version": append([]byte{2}, good[1:]...),
		"empty":           {},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, checkpointFileName), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, Options{}); err == nil {
			t.Errorf("%s: corrupt checkpoint opened", name)
		}
	}
	// The intact file opens, so the cases above fail for their damage.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointFileName), good, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if rec.CheckpointLSN != 3 || string(rec.State) != "state" || len(rec.Journal) != 1 {
		t.Fatalf("intact checkpoint: %+v", rec)
	}
}
