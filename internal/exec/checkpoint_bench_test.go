package exec

import (
	"testing"

	"cohera/internal/wal"
	"cohera/internal/workload"
)

// BenchmarkCheckpointRestore: one op checkpoints a WAL-backed 5 000-row
// catalog shard (the standing benchmark's shard size, sku indexed),
// then opens the directory and restores the checkpoint into a fresh
// database — the checkpoint and snapshot-recovery phases of a site
// restart. Run with
//
//	go test -run '^$' -bench CheckpointRestore -benchmem -cpu 2 ./internal/exec/
func BenchmarkCheckpointRestore(b *testing.B) {
	dir := b.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	db := NewDatabase()
	db.AttachWAL(l)
	if err := db.LoadRows(workload.CatalogDef(), benchShardData(b)); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateTableIndex("catalog", "sku", false); err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		l2, rec, err := wal.Open(dir, wal.Options{Policy: wal.SyncNone})
		if err != nil {
			b.Fatal(err)
		}
		got := NewDatabase()
		st, err := got.Recover(rec)
		if cerr := l2.Close(); err == nil {
			err = cerr
		}
		if err != nil || !st.Checkpoint {
			b.Fatalf("recover: %+v, %v", st, err)
		}
	}
}
