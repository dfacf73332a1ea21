package federation

import (
	"context"
	"strings"
	"testing"
	"time"

	"cohera/internal/obs"
)

// TestAgoricObservedLatencyPrior is the feedback-loop proof: a site
// whose cost model promises speed but whose *measured* latency is bad
// loses the auction once enough observations accumulate.
func TestAgoricObservedLatencyPrior(t *testing.T) {
	liar := NewSite("prior-liar") // cheap model, slow in practice
	honest := NewSite("prior-honest")
	liar.SetCost(CostModel{Latency: time.Millisecond})
	honest.SetCost(CostModel{Latency: 2 * time.Millisecond})
	frag := NewFragment("f", nil, liar, honest)
	a := NewAgoric()
	ctx := context.Background()

	// Cold start: no observations, so the model alone ranks the liar first.
	ranked := a.Rank(ctx, frag, 10)
	if len(ranked) != 2 || ranked[0] != liar {
		t.Fatalf("cold ranking should follow the model, got %v", names(ranked))
	}
	if a.PrioredBids() != 0 {
		t.Fatalf("no bids should be priored before observations, got %d", a.PrioredBids())
	}

	// Reality disagrees with the model: the liar measures 50ms, the
	// honest site 100µs. Feed past PriorMinSamples.
	for i := 0; i < 2*a.PriorMinSamples; i++ {
		liar.ObserveLatency(50 * time.Millisecond)
		honest.ObserveLatency(100 * time.Microsecond)
	}
	ranked = a.Rank(ctx, frag, 10)
	if len(ranked) != 2 || ranked[0] != honest {
		t.Errorf("observed latency should demote the liar, got %v", names(ranked))
	}
	if a.PrioredBids() == 0 {
		t.Error("priored-bid counter should move once the prior engages")
	}

	// The prior can be disabled: zero weight restores pure model ranking.
	off := &Agoric{BidTimeout: 50 * time.Millisecond, Greed: 1.0}
	ranked = off.Rank(ctx, frag, 10)
	if len(ranked) != 2 || ranked[0] != liar {
		t.Errorf("PriorWeight 0 should ignore observations, got %v", names(ranked))
	}
}

// TestSitePriorIsolation: the prior histogram is per-Site, so another
// site reusing the same name (shared /metrics series) cannot poison
// this site's ranking.
func TestSitePriorIsolation(t *testing.T) {
	a := NewSite("prior-shared-name")
	b := NewSite("prior-shared-name")
	for i := 0; i < 16; i++ {
		a.ObserveLatency(time.Second)
	}
	if _, n := b.ObservedLatency(); n != 0 {
		t.Errorf("site b observed %d samples from site a", n)
	}
	if p50, n := a.ObservedLatency(); n != 16 || p50 <= 0 {
		t.Errorf("site a prior = (%v, %d)", p50, n)
	}
}

// TestSiteLatencyHistogramExported: SubQueryStream feeds the shared
// cohera_site_subquery_seconds series that /metrics exposes.
func TestSiteLatencyHistogramExported(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	if _, err := fed.Query(context.Background(), "SELECT sku FROM parts"); err != nil {
		t.Fatal(err)
	}
	h := obs.Default().Histogram("cohera_site_subquery_seconds",
		"Observed wall-clock latency of subqueries served per site.",
		obs.Labels{"site": "east-1"})
	if h.Count() == 0 {
		t.Error("shared per-site histogram did not record the subquery")
	}
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `cohera_site_subquery_seconds_bucket{site="east-1",le=`) {
		t.Error("per-site latency series missing from the exposition")
	}
}

func TestQueryTracedCarriesTraceID(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	_, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts WHERE region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	if trace.TraceID == "" {
		t.Fatal("select trace must name its span tree")
	}
	spans := obs.DefaultTracer().Spans(trace.TraceID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded under the trace id")
	}
	var sawSelect, sawGather, sawSub bool
	for _, sp := range spans {
		switch sp.Name {
		case "federation.select":
			sawSelect = true
		case "federation.gather", "federation.gatherstream":
			sawGather = true
		case "site.subquery", "site.subquerystream":
			sawSub = true
		}
	}
	if !sawSelect || !sawGather || !sawSub {
		t.Errorf("span names incomplete: select=%v gather=%v subquery=%v", sawSelect, sawGather, sawSub)
	}
}

func TestExecTracedDML(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()

	// INSERT: the trace names every replica written.
	_, dr, trace, err := fed.ExecTraced(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'saw', 10.0, 'west')")
	if err != nil || dr.Rows != 1 {
		t.Fatalf("insert: %+v, %v", dr, err)
	}
	if trace.TraceID == "" {
		t.Error("insert trace must carry a trace id")
	}
	sites := trace.FragmentSites["parts/west"]
	if sites != "west-1,west-2" {
		t.Errorf("insert FragmentSites = %q, want both replicas", sites)
	}
	if len(obs.DefaultTracer().Spans(trace.TraceID)) == 0 {
		t.Error("insert recorded no spans")
	}

	// UPDATE with a predicate disjoint from east: east prunes, west writes.
	_, dr, trace, err = fed.ExecTraced(ctx,
		"UPDATE parts SET price = 11.0 WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Rows == 0 {
		t.Errorf("update affected no rows: %+v", dr)
	}
	if trace.PrunedFragments != 1 {
		t.Errorf("pruned = %d, want 1 (east disjoint)", trace.PrunedFragments)
	}
	if got := trace.FragmentSites["parts/west"]; got != "west-1,west-2" {
		t.Errorf("update FragmentSites = %q", got)
	}

	// A down replica shows up as a failover in the trace.
	fragWest.Replicas()[0].SetDown(true)
	_, _, trace, err = fed.ExecTraced(ctx, "DELETE FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if trace.Failovers != 1 {
		t.Errorf("failovers = %d, want 1", trace.Failovers)
	}
	if got := trace.FragmentSites["parts/west"]; got != "west-2" {
		t.Errorf("delete FragmentSites = %q, want only the live replica", got)
	}

	// SELECT through ExecTraced still yields the select trace.
	res, dr, trace, err := fed.ExecTraced(ctx, "SELECT sku FROM parts WHERE region = 'east'")
	if err != nil || dr != nil || res == nil {
		t.Fatalf("select via ExecTraced: res=%v dr=%v err=%v", res, dr, err)
	}
	if trace == nil || trace.TraceID == "" {
		t.Error("select via ExecTraced lost its trace")
	}
}
