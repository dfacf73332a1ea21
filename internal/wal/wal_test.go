package wal

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cohera/internal/value"
)

func openT(t *testing.T, dir string, opts Options) (*Log, *Recovered) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendPut(t *testing.T, l *Log, table string, vals ...value.Value) {
	t.Helper()
	err := l.Locked(func(a *Appender) error {
		return a.Append(Record{Kind: KindPut, Table: table, Row: EncodeRow(vals)})
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, Options{Policy: SyncAlways})
	if rec.HasData() {
		t.Fatalf("fresh dir reported data: %+v", rec)
	}
	appendPut(t, l, "parts", value.NewString("a"), value.NewInt(1))
	appendPut(t, l, "parts", value.NewString("b"), value.NewInt(2))
	if got := l.LSN(); got != 2 {
		t.Fatalf("LSN = %d, want 2", got)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec2.Records) != 2 || rec2.TornBytes != 0 {
		t.Fatalf("recovered %d records, %d torn", len(rec2.Records), rec2.TornBytes)
	}
	if rec2.Records[0].LSN != 1 || rec2.Records[1].LSN != 2 {
		t.Fatalf("LSNs = %d,%d", rec2.Records[0].LSN, rec2.Records[1].LSN)
	}
	if row := rec2.Records[1].Values; len(row) != 2 || row[0].Str() != "b" {
		t.Fatalf("decoded row %v", row)
	}
	// LSNs continue past what was recovered.
	appendPut(t, l2, "parts", value.NewString("c"))
	if got := l2.LSN(); got != 3 {
		t.Fatalf("LSN after reopen-append = %d, want 3", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	appendPut(t, l, "parts", value.NewString("a"))
	appendPut(t, l, "parts", value.NewString("b"))
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	path := filepath.Join(dir, logFileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: drop the last 3 bytes.
	if err := os.WriteFile(path, buf[:len(buf)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 || rec.Records[0].LSN != 1 {
		t.Fatalf("recovered %d records", len(rec.Records))
	}
	if rec.TornBytes == 0 {
		t.Fatalf("expected torn bytes")
	}
	// The file itself was truncated back to the intact prefix.
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, good, torn := ScanRecords(after); torn != 0 || good != len(after) {
		t.Fatalf("file still torn after recovery: good=%d torn=%d", good, torn)
	}
}

func TestBitFlipTruncatesFromDamage(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	appendPut(t, l, "parts", value.NewString("a"))
	appendPut(t, l, "parts", value.NewString("b"))
	appendPut(t, l, "parts", value.NewString("c"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logFileName)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the second record's payload.
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	// Never applies past the damage: only the intact prefix survives.
	if len(rec.Records) >= 3 {
		t.Fatalf("replayed %d records past a corrupt frame", len(rec.Records))
	}
	for _, r := range rec.Records {
		if r.LSN >= 2 && r.Kind == KindPut && len(r.Values) > 0 {
			if r.Values[0].Str() == "c" {
				t.Fatalf("record after the damaged one was replayed")
			}
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	appendPut(t, l, "parts", value.NewString("a"))
	appendPut(t, l, "parts", value.NewString("b"))
	state := []byte(`{"version":1,"tables":[]}`)
	if err := l.Checkpoint(writeState(state)); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("log not truncated after checkpoint: %d bytes", l.Size())
	}
	// Records after the checkpoint replay on top of the restored state.
	appendPut(t, l, "parts", value.NewString("c"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if !rec.HasCheckpoint || rec.CheckpointLSN != 2 {
		t.Fatalf("checkpoint lsn = %d (has=%v), want 2", rec.CheckpointLSN, rec.HasCheckpoint)
	}
	if !bytes.Equal(rec.State, state) {
		t.Fatalf("state = %s", rec.State)
	}
	if len(rec.Records) != 1 || rec.Records[0].LSN != 3 {
		t.Fatalf("post-checkpoint records: %+v", rec.Records)
	}
}

func TestRecordsAtOrBelowCheckpointLSNSkipped(t *testing.T) {
	// Simulate a crash between checkpoint rename and log truncation:
	// the full log survives next to a checkpoint covering part of it.
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	appendPut(t, l, "parts", value.NewString("a"))
	appendPut(t, l, "parts", value.NewString("b"))
	logBytes, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(writeState([]byte(`{"v":1}`))); err != nil {
		t.Fatal(err)
	}
	appendPut(t, l, "parts", value.NewString("c"))
	tail, err := os.ReadFile(filepath.Join(dir, logFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the pre-truncation file: records 1,2 then 3.
	if err := os.WriteFile(filepath.Join(dir, logFileName), append(append([]byte(nil), logBytes...), tail...), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 || rec.Records[0].LSN != 3 {
		t.Fatalf("want only LSN 3 replayed, got %+v", rec.Records)
	}
}

func writeState(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

func TestJournalMirrorRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncAlways})
	if err := l.AppendJournalFrame("west-2", "parts", "f1", []byte("frame-1")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJournalFrame("west-2", "parts", "f1", []byte("frame-2")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendJournalFrame("west-2", "orders", "g", []byte("other")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, Options{})
	if len(rec.Journal) != 2 {
		t.Fatalf("journal frags = %+v", rec.Journal)
	}
	var parts *JournalFrag
	for i := range rec.Journal {
		if rec.Journal[i].Table == "parts" {
			parts = &rec.Journal[i]
		}
	}
	if parts == nil || !bytes.Equal(parts.Bytes, []byte("frame-1frame-2")) {
		t.Fatalf("parts frag = %+v", parts)
	}
	// A reset clears the group; checkpoint persists the cleared state.
	if err := l2.JournalReset("west-2", "parts"); err != nil {
		t.Fatal(err)
	}
	if err := l2.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rec3 := openT(t, dir, Options{})
	defer l3.Close()
	if len(rec3.Journal) != 1 || rec3.Journal[0].Table != "orders" {
		t.Fatalf("after reset: %+v", rec3.Journal)
	}
	if rec3.State != nil {
		t.Fatalf("journal-only checkpoint carried state: %s", rec3.State)
	}
}

func TestBatchPolicyFlusherStops(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, Options{Policy: SyncBatch, BatchInterval: time.Millisecond})
	appendPut(t, l, "parts", value.NewString("a"))
	// Close must join the flusher and still persist everything.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, rec := openT(t, dir, Options{})
	defer l2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("records = %d", len(rec.Records))
	}
}

func TestStaleCheckpointTempRemoved(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, checkpointFileName+".tmp")
	if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, dir, Options{})
	defer l.Close()
	if rec.HasCheckpoint {
		t.Fatal("temp file must not count as a checkpoint")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp survived: %v", err)
	}
}
