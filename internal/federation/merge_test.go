package federation

import (
	"context"
	"fmt"
	"io"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// FuzzMergeDedupe drives the streaming merge's primary-key dedupe from
// op bytes: a fragment shape (disjoint ranges, nil predicates,
// overlapping ranges, or disjoint ranges co-hosted on one site), each
// fragment's keys, and replay points where a preferred replica dies
// mid-stream and the next one replays the fragment. Whatever the shape,
// the merged result must hold each key of the map[string] reference
// model exactly once, and nothing else.
func FuzzMergeDedupe(f *testing.F) {
	f.Add([]byte{2, 0, 0, 5, 1, 2, 3, 4, 5, 1, 3, 4, 1, 2, 3, 4, 1, 2})
	f.Add([]byte{3, 1, 1, 4, 7, 7, 3, 9, 2, 4, 1, 8, 0, 5, 5, 2, 6, 3, 2, 9})
	f.Add([]byte{2, 2, 2, 6, 1, 2, 3, 4, 5, 6, 2, 3, 1, 6, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{2, 3, 0, 4, 1, 2, 3, 4, 0, 4, 9, 8, 7, 6, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		layouts := make([]fragLayout, 1+next()%4)
		shape := next() % 4
		batch := 1 + next()%3
		for i := range layouts {
			l := &layouts[i]
			base := 0
			switch shape {
			case 0, 3: // disjoint ranges; 3 puts every fragment on one site
				base = 100 * i
				l.pred = fmt.Sprintf("sku BETWEEN 'K%03d' AND 'K%03d'", base, base+99)
			case 2: // one range for all: overlapping
				l.pred = "sku BETWEEN 'K000' AND 'K099'"
			}
			held := map[int]bool{}
			for n := next() % 12; n > 0; n-- {
				if k := base + next()%20; !held[k] {
					held[k] = true
					l.keys = append(l.keys, k)
				}
			}
			for n := next() % 3; n > 0; n-- {
				l.flaky = append(l.flaky, next()%(len(l.keys)+1))
			}
		}
		fed := dedupeFed(t, layouts, shape == 3)
		fed.StreamBatchRows = batch
		expectEachKeyOnce(t, fed, layouts)
	})
}

// BenchmarkFedMerge prices the streaming merge on an in-process
// federation shaped like the standing benchmark's read bed without the
// wire: four sites of 5 000 catalog rows, one fragment each, split by
// disjoint sku ranges. A query is the four site scans plus the merge;
// run it with -benchmem -cpu 2.
func BenchmarkFedMerge(b *testing.B) {
	const shards, perShard = 4, 5000
	fed := New(NewAgoric())
	frags := make([]*Fragment, shards)
	loads := make([][]storage.Row, shards)
	for s := range frags {
		site := NewSite(fmt.Sprintf("shard%d", s))
		if err := fed.AddSite(site); err != nil {
			b.Fatal(err)
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("sku BETWEEN 'S%d-00000' AND 'S%d-99999'", s, s))
		if err != nil {
			b.Fatal(err)
		}
		frags[s] = NewFragment(fmt.Sprintf("f%d", s), pred, site)
		sup := workload.Suppliers(1, perShard, 0.05, int64(s+1))[0]
		if loads[s], err = workload.GroundTruthRows(sup, value.DefaultCurrencyTable()); err != nil {
			b.Fatal(err)
		}
		for i, r := range loads[s] {
			r[0] = value.NewString(fmt.Sprintf("S%d-%05d", s, i))
			r[6] = value.NewInt(int64(i % 1000)) // qty < 100 keeps 10 %
		}
	}
	if _, err := fed.DefineTable(workload.CatalogDef(), frags...); err != nil {
		b.Fatal(err)
	}
	for s, frag := range frags {
		if err := fed.LoadFragment("catalog", frag, loads[s]); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, bc := range []struct {
		name, sql string
		rows      int
	}{
		{"star", "SELECT * FROM catalog", shards * perShard},
		{"pushed10", "SELECT sku, qty FROM catalog WHERE qty < 100", shards * perShard / 10},
		{"bound", "SELECT sku, qty * 2 AS q2 FROM catalog", shards * perShard},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, _, err := fed.QueryStream(ctx, bc.sql)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					_, err := st.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n++
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
				if n != bc.rows {
					b.Fatalf("%s: %d rows, want %d", bc.sql, n, bc.rows)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.rows), "ns/row")
		})
	}
}
