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

// E3OptimizerScale measures optimization cost as the federation grows —
// the paper's Characteristic 8 claim that "we see no way for
// compile-time, centralized cost-based optimizers to provide required
// scalability", versus the agoric design that "must scale to hundreds,
// if not thousands, of sites".
//
// The centralized baseline pays a serial statistics probe per registered
// site to refresh its snapshot (then ranks from the snapshot); the
// agoric optimizer collects bids from the fragment's replicas in
// parallel per query. We sweep the number of sites and report the time
// to produce a plan from a cold statistics state.
func E3OptimizerScale(cfg Config) (Table, error) {
	sizes := []int{4, 16, 64, 256, 1024}
	if cfg.Quick {
		sizes = []int{4, 32, 128}
	}
	t := Table{
		ID:      "E3",
		Title:   "cold-plan time vs federation size: agoric vs centralized",
		Headers: []string{"sites", "agoric plan", "centralized plan", "ratio"},
		Notes:   "expected shape: centralized grows linearly with site count (serial stat probes); agoric stays near-flat",
	}
	for _, n := range sizes {
		r, err := runE3(cfg.Seed, n)
		if err != nil {
			return t, err
		}
		ratio := float64(r.central) / float64(r.agoric)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtDur(r.agoric),
			fmtDur(r.central),
			fmt.Sprintf("%.0fx", ratio),
		})
	}
	return t, nil
}

// e3Run is one cold plan by each optimizer: its wall time, and the
// work that explains it — the auctions held and bids collected in
// parallel, the statistics sweeps and the serial per-site probes.
type e3Run struct {
	agoric, central   time.Duration
	auctions, bids    int64
	refreshes, probes int
}

func runE3(seed int64, n int) (r e3Run, err error) {
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	fed := federation.New(federation.NewAgoric())
	sites := make([]*federation.Site, n)
	for i := range sites {
		s := federation.NewSite(fmt.Sprintf("site-%04d", i))
		s.SetCost(federation.CostModel{Latency: time.Duration(100+i%7*50) * time.Microsecond})
		if err := fed.AddSite(s); err != nil {
			return r, err
		}
		sites[i] = s
	}
	// One fragment replicated everywhere: the hardest planning case.
	frag := federation.NewFragment("f", nil, sites...)
	if _, err := fed.DefineTable(def, frag); err != nil {
		return r, err
	}
	if err := fed.LoadFragment("t", frag, []storage.Row{{value.NewInt(1)}}); err != nil {
		return r, err
	}
	ctx := context.Background()

	ag := federation.NewAgoric()
	start := time.Now()
	if ranked := ag.Rank(ctx, frag, 1); len(ranked) != n {
		return r, fmt.Errorf("bench: agoric ranked %d of %d", len(ranked), n)
	}
	r.agoric = time.Since(start)
	r.auctions, r.bids = ag.Auctions(), ag.BidsCollected()

	cen := federation.NewCentralized(fed)
	cen.ProbeLatency = 50 * time.Microsecond // modest per-site RPC
	start = time.Now()
	if ranked := cen.Rank(ctx, frag, 1); len(ranked) != n {
		return r, fmt.Errorf("bench: centralized ranked %d of %d", len(ranked), n)
	}
	r.central = time.Since(start)
	// A sweep probes every registered site, one after another.
	r.refreshes = cen.Refreshes()
	r.probes = r.refreshes * len(fed.Sites())
	return r, nil
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}
