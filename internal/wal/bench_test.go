package wal

import (
	"fmt"
	"testing"

	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// The log codec micro-benchmarks, on catalog rows (the standing
// benchmark's row shape): appending put records the way
// exec.Database.LoadRows does, and scanning a log image back into rows
// the way replay does. Run with
//
//	go test -run '^$' -bench 'WALAppendPut|ScanRecords' -benchmem -cpu 2 ./internal/wal/

const benchBatch = 256

func benchCatalogRows(b *testing.B, n int) []storage.Row {
	b.Helper()
	sup := workload.Suppliers(1, n, 0.05, 1)[0]
	rows, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
	if err != nil {
		b.Fatal(err)
	}
	for i, r := range rows {
		r[0] = value.NewString(fmt.Sprintf("P%07d", i))
	}
	return rows
}

// BenchmarkWALAppendPut: one op is one commit-latch scope staging
// benchBatch put records, one write to the file (SyncNone).
func BenchmarkWALAppendPut(b *testing.B) {
	rows := benchCatalogRows(b, benchBatch)
	l, _, err := Open(b.TempDir(), Options{Policy: SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := l.Locked(func(a *Appender) error {
			for _, r := range rows {
				if err := a.Append(Record{Kind: KindPut, Table: "catalog", Values: r}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 { // keep the file small; the checkpoint is outside the timer
			b.StopTimer()
			if err := l.Checkpoint(nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/record")
}

// BenchmarkScanRecords: one op scans a 4 096-record log image into
// records whose rows are values, ready for replay to apply.
func BenchmarkScanRecords(b *testing.B) {
	rows := benchCatalogRows(b, 4096)
	var img []byte
	for i, r := range rows {
		var err error
		img, err = appendFrame(img, Record{LSN: uint64(i + 1), Kind: KindPut, Table: "catalog", Values: r})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, torn := ScanRecords(img)
		if torn != 0 || len(recs) != len(rows) {
			b.Fatalf("scanned %d records, %d torn bytes", len(recs), torn)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/record")
}
