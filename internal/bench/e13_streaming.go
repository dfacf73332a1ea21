package bench

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"cohera/internal/federation"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// E13Streaming is the streaming-vs-collected micro-benchmark: the same
// full scan answered once through Federation.Query, which drains the
// merge stream into one result slice before returning, and once
// through Federation.QueryStream drained row by row. For each (total
// rows, fragment count) cell it records the median wall clock and the
// peak rows resident in the engine: the whole result set for the
// collected arm, the scatter-gather fan-in high-water mark
// (QueryTrace.PeakBufferedRows) for the streaming arm. The claim under
// test is that the streaming bound is O(batch × fragments) — flat in
// the total row count.
func E13Streaming(cfg Config) (Table, error) {
	rowCounts := []int{1_000, 100_000, 1_000_000}
	fragCounts := []int{2, 8}
	reps := 3
	if cfg.Quick {
		rowCounts = []int{1_000, 10_000}
		fragCounts = []int{2}
		reps = 1
	}
	t := Table{
		ID:      "E13",
		Title:   "streaming vs collected scatter-gather: wall clock and peak resident rows",
		Headers: []string{"rows", "fragments", "mode", "median wall", "peak resident rows"},
		Notes:   "expected shape: the collected peak is the result size; streaming peak stays near batch x fragments at every scale",
	}

	ctx := context.Background()
	for _, frags := range fragCounts {
		for _, total := range rowCounts {
			fed, err := streamBenchFed(total, frags, cfg.Seed)
			if err != nil {
				return t, err
			}
			const sql = "SELECT sku, qty FROM items"

			matWall := make([]time.Duration, 0, reps)
			matPeak := 0
			for r := 0; r < reps; r++ {
				start := time.Now()
				res, _, err := fed.QueryTraced(ctx, sql)
				if err != nil {
					return t, fmt.Errorf("E13 collected %dx%d: %w", total, frags, err)
				}
				matWall = append(matWall, time.Since(start))
				if len(res.Rows) != total {
					return t, fmt.Errorf("E13 collected %dx%d: %d rows, want %d", total, frags, len(res.Rows), total)
				}
				matPeak = len(res.Rows)
			}

			strWall := make([]time.Duration, 0, reps)
			strPeak := 0
			for r := 0; r < reps; r++ {
				start := time.Now()
				st, trace, err := fed.QueryStream(ctx, sql)
				if err != nil {
					return t, fmt.Errorf("E13 stream open %dx%d: %w", total, frags, err)
				}
				n, err := drainStream(st)
				if err != nil {
					return t, fmt.Errorf("E13 stream drain %dx%d: %w", total, frags, err)
				}
				strWall = append(strWall, time.Since(start))
				if n != total {
					return t, fmt.Errorf("E13 stream %dx%d: %d rows, want %d", total, frags, n, total)
				}
				if trace.PeakBufferedRows > strPeak {
					strPeak = trace.PeakBufferedRows
				}
			}

			for _, m := range []struct {
				mode string
				wall time.Duration
				peak int
			}{
				{"collected", medianDuration(matWall), matPeak},
				{"streaming", medianDuration(strWall), strPeak},
			} {
				t.Rows = append(t.Rows, []string{
					fmt.Sprintf("%d", total),
					fmt.Sprintf("%d", frags),
					m.mode,
					fmt.Sprintf("%.2fms", float64(m.wall.Microseconds())/1000),
					fmt.Sprintf("%d", m.peak),
				})
			}
		}
	}
	return t, nil
}

// streamBenchFed builds an in-process federation of nFrags fragments
// sharded by hash over `total` synthetic catalog rows.
func streamBenchFed(total, nFrags int, seed int64) (*federation.Federation, error) {
	def := schema.MustTable("items", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "shard", Kind: value.KindInt, NotNull: true},
		{Name: "qty", Kind: value.KindInt},
	}, "sku")

	fed := federation.New(federation.NewAgoric())
	frags := make([]*federation.Fragment, nFrags)
	for f := 0; f < nFrags; f++ {
		site := federation.NewSite(fmt.Sprintf("s%d", f))
		if err := fed.AddSite(site); err != nil {
			return nil, err
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("shard = %d", f))
		if err != nil {
			return nil, err
		}
		frags[f] = federation.NewFragment(fmt.Sprintf("f%d", f), pred, site)
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		return nil, err
	}

	byFrag := make([][]storage.Row, nFrags)
	for i := 0; i < total; i++ {
		f := i % nFrags
		byFrag[f] = append(byFrag[f], storage.Row{
			value.NewString(fmt.Sprintf("P%07d", i)),
			value.NewInt(int64(f)),
			value.NewInt(int64((i*7 + int(seed)) % 500)),
		})
	}
	for f := 0; f < nFrags; f++ {
		if err := fed.LoadFragment("items", frags[f], byFrag[f]); err != nil {
			return nil, err
		}
	}
	return fed, nil
}

// drainStream pulls a stream to EOF without retaining rows, closing it
// on every path, and returns the row count.
func drainStream(st storage.RowStream) (int, error) {
	defer st.Close()
	n := 0
	for {
		if _, err := st.Next(); err != nil {
			if err == io.EOF {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// medianDuration returns the middle sample (lower median on ties).
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)-1)/2]
}
