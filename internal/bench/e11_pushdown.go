package bench

import (
	"context"
	"fmt"
	"time"

	"cohera/internal/federation"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// E11Pushdown is an ablation on a coordinator design decision: projection
// pushdown. Content-rich catalog rows are wide (descriptions, terms,
// imagery URLs); the paper's "route large volumes of rich content"
// framing makes the shipped-cell count a first-order cost. We run a
// narrow query over a wide replicated table with pushdown on and off,
// charging sites a per-cell transfer cost, and report latency and cells
// moved.
func E11Pushdown(cfg Config) (Table, error) {
	rows, width, queries := 400, 24, 40
	if cfg.Quick {
		rows, width, queries = 100, 12, 10
	}
	t := Table{
		ID:      "E11",
		Title:   "ablation: projection pushdown on a wide catalog table",
		Headers: []string{"pushdown", "cells shipped/query", "mean latency", "saving"},
		Notes:   "expected shape: pushdown ships ~3 of N columns and cuts latency proportionally",
	}
	var baseCells int
	var baseLat time.Duration
	for _, enabled := range []bool{false, true} {
		cells, lat, err := runE11(cfg.Seed, rows, width, queries, enabled)
		if err != nil {
			return t, err
		}
		if !enabled {
			baseCells, baseLat = cells, lat
		}
		saving := "-"
		if enabled && baseCells > 0 {
			saving = fmt.Sprintf("%.0f%% cells, %.0f%% time",
				100*(1-float64(cells)/float64(baseCells)),
				100*(1-float64(lat)/float64(baseLat)))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v", enabled),
			fmt.Sprintf("%d", cells),
			fmtDur(lat),
			saving,
		})
	}
	return t, nil
}

func runE11(seed int64, rows, width, queries int, pushdown bool) (cellsPerQuery int, meanLat time.Duration, err error) {
	cols := []schema.Column{{Name: "id", Kind: value.KindInt, NotNull: true}}
	for i := 1; i < width; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("attr%02d", i), Kind: value.KindString})
	}
	def := schema.MustTable("rich", cols, "id")
	fed := federation.New(federation.NewAgoric())
	fed.DisableProjectionPushdown = !pushdown
	s := federation.NewSite("s")
	// The site charges Latency per subquery; PerRow only prices bids. The
	// measured signal is the cell count plus the coordinator's load cost
	// of wide rows.
	s.SetCost(federation.CostModel{Latency: 100 * time.Microsecond, PerRow: 2 * time.Microsecond})
	if err := fed.AddSite(s); err != nil {
		return 0, 0, err
	}
	frag := federation.NewFragment("f", nil, s)
	if _, err := fed.DefineTable(def, frag); err != nil {
		return 0, 0, err
	}
	var batch []storage.Row
	for i := 0; i < rows; i++ {
		r := storage.Row{value.NewInt(int64(i))}
		for j := 1; j < width; j++ {
			r = append(r, value.NewString(fmt.Sprintf("attribute-%02d-of-row-%04d", j, i)))
		}
		batch = append(batch, r)
	}
	if err := fed.LoadFragment("rich", frag, batch); err != nil {
		return 0, 0, err
	}
	// Reference plan for the differential oracle: the same data with
	// every pushdown disabled, so all evaluation happens at the
	// coordinator. Each measured configuration must agree with it.
	ref := federation.New(federation.NewAgoric())
	ref.DisableProjectionPushdown = true
	ref.DisablePredicatePushdown = true
	rs := federation.NewSite("ref")
	if err := ref.AddSite(rs); err != nil {
		return 0, 0, err
	}
	rfrag := federation.NewFragment("f", nil, rs)
	if _, err := ref.DefineTable(def, rfrag); err != nil {
		return 0, 0, err
	}
	if err := ref.LoadFragment("rich", rfrag, batch); err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	var total time.Duration
	var cells int
	for q := 0; q < queries; q++ {
		sql := fmt.Sprintf("SELECT attr01 FROM rich WHERE id >= %d", q%10)
		start := time.Now()
		res, trace, err := fed.QueryTraced(ctx, sql)
		if err != nil {
			return 0, 0, err
		}
		total += time.Since(start)
		cells = trace.CellsShipped
		if q < 5 {
			want, err := ref.Query(ctx, sql)
			if err != nil {
				return 0, 0, err
			}
			if !sameRowMultiset(res.Rows, want.Rows) {
				return 0, 0, fmt.Errorf("E11 differential: pushdown=%v disagrees with unpushed plan on %q", pushdown, sql)
			}
		}
	}
	return cells, total / time.Duration(queries), nil
}

// sameRowMultiset reports whether two result sets hold the same rows,
// ignoring order — the pushed-vs-unpushed differential oracle.
func sameRowMultiset(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	key := func(r storage.Row) string {
		s := ""
		for _, v := range r {
			s += v.String() + "\x1f"
		}
		return s
	}
	for _, r := range a {
		seen[key(r)]++
	}
	for _, r := range b {
		seen[key(r)]--
		if seen[key(r)] < 0 {
			return false
		}
	}
	return true
}
