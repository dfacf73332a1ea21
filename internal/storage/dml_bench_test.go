package storage_test

import (
	"fmt"
	"testing"

	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// The write-path micro-benchmarks: one 5 000-row catalog shard (the
// standing benchmark's shard size) with the B-tree on sku and the
// inverted index on name it carries there.

const benchShardRows = 5000

func benchShard(b *testing.B) (*storage.Table, []int64, []storage.Row) {
	b.Helper()
	sup := workload.Suppliers(1, benchShardRows, 0.05, 1)[0]
	rows, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
	if err != nil {
		b.Fatal(err)
	}
	tbl := storage.NewTable(workload.CatalogDef())
	if err := tbl.CreateIndex("sku"); err != nil {
		b.Fatal(err)
	}
	ids := make([]int64, len(rows))
	for i, r := range rows {
		r[0] = value.NewString(fmt.Sprintf("P%07d", i))
		if ids[i], err = tbl.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	return tbl, ids, rows
}

// BenchmarkTableUpdate rewrites one column of a row per op, flipping
// every row between its loaded version and an altered one: qty has no
// index, sku is the key and carries the B-tree, name the inverted index.
func BenchmarkTableUpdate(b *testing.B) {
	for _, c := range []struct {
		col   string
		alter func(row storage.Row, i int)
	}{
		{"qty", func(row storage.Row, i int) { row[6] = value.NewInt(row[6].Int() + 1) }},
		{"sku", func(row storage.Row, i int) { row[0] = value.NewString(fmt.Sprintf("Q%07d", i)) }},
		{"name", func(row storage.Row, i int) { row[2] = value.NewString("heavy duty " + row[2].Str()) }},
	} {
		b.Run(c.col, func(b *testing.B) {
			tbl, ids, rows := benchShard(b)
			versions := [2][]storage.Row{rows, make([]storage.Row, len(rows))}
			for i, r := range rows {
				versions[1][i] = r.Clone()
				c.alter(versions[1][i], i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(ids)
				if err := tbl.Update(ids[j], versions[(i/len(ids)+1)%2][j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchChunk is how many rows BenchmarkTableInsert and
// BenchmarkTableDelete add to (and take from) the shard between pauses
// of the timer, so the table stays near its loaded size.
const benchChunk = 1000

// chunkRows returns benchChunk rows with keys the shard does not hold.
func chunkRows(rows []storage.Row) []storage.Row {
	out := make([]storage.Row, benchChunk)
	for i := range out {
		out[i] = rows[i].Clone()
		out[i][0] = value.NewString(fmt.Sprintf("X%07d", i))
	}
	return out
}

// BenchmarkTableInsert prices one insert into the loaded shard.
func BenchmarkTableInsert(b *testing.B) {
	tbl, _, rows := benchShard(b)
	extra := chunkRows(rows)
	ids := make([]int64, 0, benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		ids = ids[:0]
		for _, r := range extra[:min(benchChunk, b.N-done)] {
			id, err := tbl.Insert(r)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		done += len(ids)
		b.StopTimer()
		for _, id := range ids {
			if err := tbl.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkTableDelete prices one delete from the loaded shard.
func BenchmarkTableDelete(b *testing.B) {
	tbl, _, rows := benchShard(b)
	extra := chunkRows(rows)
	ids := make([]int64, 0, benchChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		ids = ids[:0]
		for _, r := range extra[:min(benchChunk, b.N-done)] {
			id, err := tbl.Insert(r)
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		b.StartTimer()
		for _, id := range ids {
			if err := tbl.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
		done += len(ids)
	}
}
