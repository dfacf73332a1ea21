package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cohera/internal/value"
)

// fuzzSeedLog builds a small valid log image: schema create, two puts,
// an update, a delete, and a journal frame — every record kind replay
// routes differently.
func fuzzSeedLog() []byte {
	var buf []byte
	recs := []Record{
		{LSN: 1, Kind: KindCreate, Table: "parts", Schema: &TableSchema{
			Name: "parts", Key: []string{"sku"},
			Columns: []ColumnSchema{{Name: "sku", Kind: "string", NotNull: true}, {Name: "price", Kind: "int"}},
		}},
		{LSN: 2, Kind: KindPut, Table: "parts", Row: []Val{{K: "string", S: "a"}, {K: "int", I: 1}}},
		{LSN: 3, Kind: KindPut, Table: "parts", Row: []Val{{K: "string", S: "b"}, {K: "int", I: 2}}},
		{LSN: 4, Kind: KindUpd, Table: "parts",
			Old: []Val{{K: "string", S: "a"}, {K: "int", I: 1}},
			Row: []Val{{K: "string", S: "a"}, {K: "int", I: 9}}},
		{LSN: 5, Kind: KindDel, Table: "parts", Row: []Val{{K: "string", S: "b"}, {K: "int", I: 2}}},
		{LSN: 6, Kind: KindJFrame, Site: "west-2", Table: "parts", Frag: "west", Frame: []byte("opaque")},
	}
	for _, r := range recs {
		b, err := appendFrame(buf, r)
		if err != nil {
			panic(err)
		}
		buf = b
	}
	return buf
}

// FuzzWALReplay: however the log bytes are mangled, recovery must not
// panic, must never surface a record from past the first framing
// error, and must leave the on-disk log truncated to exactly the
// intact prefix — the replay-safety contract kill -9 relies on.
func FuzzWALReplay(f *testing.F) {
	valid := fuzzSeedLog()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail mid-record
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip in the middle
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// One frame of each format version: a JSON record an older release
	// wrote, and the binary record this one writes.
	put := Record{LSN: 1, Kind: KindPut, Table: "parts", Values: []value.Value{value.NewString("a"), value.NewInt(1)}}
	f.Add(appendFrameV0(f, nil, put))
	v1, err := appendFrame(nil, put)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, good, torn := ScanRecords(data)
		if good+torn != len(data) || good < 0 {
			t.Fatalf("good %d + torn %d != len %d", good, torn, len(data))
		}
		// Prefix property: the intact prefix re-scans to the same
		// records with nothing torn — nothing past a framing error was
		// ever surfaced.
		recs2, good2, torn2 := ScanRecords(data[:good])
		if good2 != good || torn2 != 0 || len(recs2) != len(recs) {
			t.Fatalf("prefix rescan diverged: good %d->%d torn %d records %d->%d",
				good, good2, torn2, len(recs), len(recs2))
		}
		// Opening a log file holding these bytes must recover the same
		// record set and truncate the torn tail on disk.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, Options{Policy: SyncNone})
		if err != nil {
			t.Fatalf("Open on fuzzed log: %v", err)
		}
		defer func() {
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		}()
		if rec.TornBytes != torn {
			t.Fatalf("recovered torn bytes %d, want %d", rec.TornBytes, torn)
		}
		// Recovery routes journal records to the mirror and skips
		// records at or below the checkpoint LSN (0 here, so crafted
		// LSN-0 records are skipped); everything else must surface.
		wantTable := 0
		for _, r := range recs {
			if r.LSN > 0 && r.Kind != KindJFrame && r.Kind != KindJReset {
				wantTable++
			}
		}
		if len(rec.Records) != wantTable {
			t.Fatalf("recovered %d table records, scanned %d eligible", len(rec.Records), wantTable)
		}
		fi, err := os.Stat(filepath.Join(dir, logFileName))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(good) {
			t.Fatalf("log not truncated to intact prefix: size %d, want %d", fi.Size(), good)
		}
		// The recovered log must accept a fresh append: replay never
		// leaves the LSN counter behind a surviving record.
		if err := l.Locked(func(a *Appender) error {
			return a.Append(Record{Kind: KindTrunc, Table: "parts"})
		}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		// Monotonic continuation (guarded against crafted near-overflow
		// LSNs, where wraparound is acceptable).
		if rec.LastLSN < 1<<62 && l.LSN() <= rec.LastLSN {
			t.Fatalf("post-recovery LSN %d not past recovered LastLSN %d", l.LSN(), rec.LastLSN)
		}
	})
}

// journalRecords counts the jframe/jreset records a scan produced —
// recovery routes those into the journal mirror, not rec.Records.
func journalRecords(recs []Record) int {
	n := 0
	for _, r := range recs {
		if r.Kind == KindJFrame || r.Kind == KindJReset {
			n++
		}
	}
	return n
}

// TestFuzzSeedValid pins the seed corpus itself: the valid image scans
// clean, the torn and flipped variants stop early.
func TestFuzzSeedValid(t *testing.T) {
	valid := fuzzSeedLog()
	recs, good, torn := ScanRecords(valid)
	if len(recs) != 6 || good != len(valid) || torn != 0 {
		t.Fatalf("valid seed: %d records, good %d/%d, torn %d", len(recs), good, len(valid), torn)
	}
	_, good, torn = ScanRecords(valid[:len(valid)-3])
	if torn == 0 || good >= len(valid)-3 {
		t.Fatalf("torn seed not detected: good %d torn %d", good, torn)
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	frecs, _, ftorn := ScanRecords(flipped)
	if ftorn == 0 || len(frecs) >= 6 {
		t.Fatalf("bit flip not detected: %d records, torn %d", len(frecs), ftorn)
	}
	if !bytes.Equal(valid, fuzzSeedLog()) {
		t.Fatal("seed builder not deterministic")
	}
}
