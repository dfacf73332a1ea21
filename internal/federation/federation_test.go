package federation

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

func partsDef() *schema.Table {
	return schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "name", Kind: value.KindString, FullText: true},
		{Name: "price", Kind: value.KindFloat},
		{Name: "region", Kind: value.KindString},
	}, "sku")
}

func row(sku, name string, price float64, region string) storage.Row {
	return storage.Row{
		value.NewString(sku), value.NewString(name),
		value.NewFloat(price), value.NewString(region),
	}
}

// twoFragFed builds a federation with the parts table split into
// east/west fragments, the west fragment replicated on two sites.
func twoFragFed(t *testing.T) (*Federation, *Fragment, *Fragment) {
	t.Helper()
	fed := New(NewAgoric())
	sEast := NewSite("east-1")
	sWest1 := NewSite("west-1")
	sWest2 := NewSite("west-2")
	for _, s := range []*Site{sEast, sWest1, sWest2} {
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	eastPred, _ := sqlparse.ParseExpr("region = 'east'")
	westPred, _ := sqlparse.ParseExpr("region = 'west'")
	fragEast := NewFragment("east", eastPred, sEast)
	fragWest := NewFragment("west", westPred, sWest1, sWest2)
	if _, err := fed.DefineTable(partsDef(), fragEast, fragWest); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("parts", fragEast, []storage.Row{
		row("E1", "India ink", 3.5, "east"),
		row("E2", "ballpoint pen", 1.2, "east"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("parts", fragWest, []storage.Row{
		row("W1", "cordless drill", 99.5, "west"),
		row("W2", "forklift", 12000, "west"),
	}); err != nil {
		t.Fatal(err)
	}
	return fed, fragEast, fragWest
}

func TestFederatedSelectAll(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	res, err := fed.Query(context.Background(), "SELECT sku FROM parts ORDER BY sku")
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (both fragments)", len(res.Rows))
	}
	if res.Rows[0][0].Str() != "E1" || res.Rows[3][0].Str() != "W2" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestPushdownAndPruning(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	res, trace, err := fed.QueryTraced(context.Background(),
		"SELECT sku FROM parts WHERE region = 'west' AND price < 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "W1" {
		t.Errorf("rows = %v", res.Rows)
	}
	// The east fragment is provably disjoint with region='west'.
	if trace.PrunedFragments != 1 {
		t.Errorf("pruned = %d, want 1", trace.PrunedFragments)
	}
	if len(trace.FragmentSites) != 1 {
		t.Errorf("fragments queried = %v", trace.FragmentSites)
	}
}

func TestFragmentPruningByRange(t *testing.T) {
	fed := New(NewAgoric())
	s1, s2 := NewSite("a"), NewSite("b")
	_ = fed.AddSite(s1)
	_ = fed.AddSite(s2)
	cheap, _ := sqlparse.ParseExpr("price < 100")
	dear, _ := sqlparse.ParseExpr("price >= 100")
	f1 := NewFragment("cheap", cheap, s1)
	f2 := NewFragment("dear", dear, s2)
	if _, err := fed.DefineTable(partsDef(), f1, f2); err != nil {
		t.Fatal(err)
	}
	_ = fed.LoadFragment("parts", f1, []storage.Row{row("C1", "pen", 1, "x")})
	_ = fed.LoadFragment("parts", f2, []storage.Row{row("D1", "forklift", 5000, "x")})
	_, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts WHERE price > 200")
	if err != nil {
		t.Fatal(err)
	}
	if trace.PrunedFragments != 1 {
		t.Errorf("range pruning failed: %+v", trace)
	}
}

func TestFederatedJoin(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	// A second global table: single fragment with supplier info.
	supDef := schema.MustTable("suppliers", []schema.Column{
		{Name: "region", Kind: value.KindString, NotNull: true},
		{Name: "rep", Kind: value.KindString},
	}, "region")
	s, _ := fed.Site("east-1")
	frag := NewFragment("all", nil, s)
	if _, err := fed.DefineTable(supDef, frag); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("suppliers", frag, []storage.Row{
		{value.NewString("east"), value.NewString("Alice")},
		{value.NewString("west"), value.NewString("Bob")},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query(context.Background(), `
		SELECT p.sku, s.rep FROM parts p
		JOIN suppliers s ON p.region = s.region
		WHERE p.price > 50 ORDER BY p.sku`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Str() != "Bob" {
		t.Errorf("join rows = %v", res.Rows)
	}
}

func TestFederatedAggregateAndText(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	res, err := fed.Query(context.Background(),
		"SELECT region, COUNT(*) AS n FROM parts GROUP BY region ORDER BY region")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].Int() != 2 {
		t.Errorf("agg = %v", res.Rows)
	}
	// Text search runs at the coordinator over gathered rows.
	res, err = fed.Query(context.Background(),
		"SELECT sku FROM parts WHERE FUZZY(name, 'drlls crdlss')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "W1" {
		t.Errorf("fuzzy = %v", res.Rows)
	}
	// Synonyms declared on the federation work through SYNONYM().
	fed.Synonyms().Declare("black ink", "india ink")
	res, err = fed.Query(context.Background(),
		"SELECT sku FROM parts WHERE SYNONYM(name, 'black ink')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "E1" {
		t.Errorf("synonym = %v", res.Rows)
	}
}

func TestFailover(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	// Kill the preferred west replica; query must fail over.
	w1, _ := fed.Site("west-1")
	w1.SetDown(true)
	res, trace, err := fed.QueryTraced(context.Background(),
		"SELECT sku FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
	served := trace.FragmentSites["parts/west"]
	if served != "west-2" {
		t.Errorf("served by %q, want west-2", served)
	}
	// Both replicas down → ErrNoReplica.
	w2, _ := fed.Site("west-2")
	w2.SetDown(true)
	if _, err := fed.Query(context.Background(), "SELECT sku FROM parts WHERE region = 'west'"); !errors.Is(err, ErrNoReplica) {
		t.Errorf("all-down err = %v", err)
	}
	// Recovery restores service.
	w1.SetDown(false)
	if _, err := fed.Query(context.Background(), "SELECT sku FROM parts WHERE region = 'west'"); err != nil {
		t.Errorf("after recovery: %v", err)
	}
	_ = fragWest
}

func TestAgoricPrefersIdleCheapSite(t *testing.T) {
	fed := New(NewAgoric())
	fast := NewSite("fast")
	slow := NewSite("slow")
	fast.SetCost(CostModel{Latency: time.Microsecond, PerRow: time.Microsecond})
	slow.SetCost(CostModel{Latency: 50 * time.Microsecond, PerRow: 10 * time.Microsecond})
	_ = fed.AddSite(fast)
	_ = fed.AddSite(slow)
	frag := NewFragment("f", nil, slow, fast) // order should not matter
	if _, err := fed.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	_ = fed.LoadFragment("parts", frag, []storage.Row{row("P1", "ink", 1, "x")})
	_, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	if trace.FragmentSites["parts/f"] != "fast" {
		t.Errorf("agoric chose %q, want fast", trace.FragmentSites["parts/f"])
	}
	ag := fed.Optimizer().(*Agoric)
	if ag.Auctions() == 0 || ag.BidsCollected() == 0 {
		t.Error("auction counters not advancing")
	}
}

func TestCentralizedUsesStaleLoad(t *testing.T) {
	fed := New(nil)
	a, b := NewSite("a"), NewSite("b")
	a.SetCost(CostModel{Latency: time.Microsecond})
	b.SetCost(CostModel{Latency: 2 * time.Microsecond})
	_ = fed.AddSite(a)
	_ = fed.AddSite(b)
	cen := NewCentralized(fed)
	cen.ProbeLatency = 0
	fed.SetOptimizer(cen)
	frag := NewFragment("f", nil, a, b)
	if _, err := fed.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	_ = fed.LoadFragment("parts", frag, []storage.Row{row("P1", "ink", 1, "x")})
	cen.RefreshStats(context.Background())
	// Site a goes down *after* the snapshot; the centralized optimizer
	// still ranks it first, so execution pays a failover.
	a.SetDown(true)
	_, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	if trace.Failovers != 1 {
		t.Errorf("failovers = %d, want 1 (stale snapshot)", trace.Failovers)
	}
	if trace.FragmentSites["parts/f"] != "b" {
		t.Errorf("served by %q", trace.FragmentSites["parts/f"])
	}
	// After a refresh it routes around the failure at plan time.
	cen.RefreshStats(context.Background())
	_, trace, _ = fed.QueryTraced(context.Background(), "SELECT sku FROM parts")
	if trace.Failovers != 0 {
		t.Errorf("failovers after refresh = %d", trace.Failovers)
	}
	if cen.Refreshes() < 2 {
		t.Errorf("refreshes = %d", cen.Refreshes())
	}
}

func TestWrapperBackedFragment(t *testing.T) {
	fed := New(NewAgoric())
	site := NewSite("hotel-chain")
	_ = fed.AddSite(site)
	roomsDef := schema.MustTable("rooms", []schema.Column{
		{Name: "hotel", Kind: value.KindString, NotNull: true},
		{Name: "city", Kind: value.KindString},
		{Name: "available", Kind: value.KindInt},
	}, "hotel")
	avail := 5
	src := wrapper.NewFuncSource("reservations", roomsDef,
		wrapper.Capabilities{PushdownEq: []string{"city"}},
		func(_ context.Context, filters []wrapper.Filter) ([]storage.Row, error) {
			return []storage.Row{{
				value.NewString("Airport Inn"), value.NewString("Atlanta"),
				value.NewInt(int64(avail)),
			}}, nil
		})
	site.AddSource(src)
	frag := NewFragment("chain-1", nil, site)
	if _, err := fed.DefineTable(roomsDef, frag); err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query(context.Background(),
		"SELECT hotel, available FROM rooms WHERE city = 'Atlanta'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int() != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Fetch on demand: the owner's change is visible immediately.
	avail = 0
	res, _ = fed.Query(context.Background(),
		"SELECT hotel, available FROM rooms WHERE city = 'Atlanta'")
	if res.Rows[0][1].Int() != 0 {
		t.Error("stale availability — fetch on demand violated")
	}
}

func TestAddReplicaNoDowntime(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	// A new machine joins mid-flight; the very next query can use it.
	s3 := NewSite("west-3")
	if err := fed.AddSite(s3); err != nil {
		t.Fatal(err)
	}
	// Copy fragment data to the new replica, then register it.
	if err := fed.LoadFragment("parts", NewFragment("tmp", nil, s3), []storage.Row{
		row("W1", "cordless drill", 99.5, "west"),
		row("W2", "forklift", 12000, "west"),
	}); err != nil {
		t.Fatal(err)
	}
	fragWest.AddReplica(s3)
	// Kill the two original replicas: only the new one can serve.
	w1, _ := fed.Site("west-1")
	w2, _ := fed.Site("west-2")
	w1.SetDown(true)
	w2.SetDown(true)
	_, trace, err := fed.QueryTraced(context.Background(),
		"SELECT sku FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatalf("new replica not used: %v", err)
	}
	if trace.FragmentSites["parts/west"] != "west-3" {
		t.Errorf("served by %q, want west-3", trace.FragmentSites["parts/west"])
	}
}

func TestDefinitionErrors(t *testing.T) {
	fed := New(NewAgoric())
	s := NewSite("s")
	_ = fed.AddSite(s)
	if err := fed.AddSite(NewSite("s")); err == nil {
		t.Error("duplicate site should fail")
	}
	if _, err := fed.DefineTable(partsDef()); err == nil {
		t.Error("table without fragments should fail")
	}
	frag := NewFragment("f", nil, s)
	if _, err := fed.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	if _, err := fed.DefineTable(partsDef(), frag); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := fed.Table("ghost"); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := fed.Site("ghost"); err == nil {
		t.Error("missing site should fail")
	}
	if _, err := fed.Query(context.Background(), "DELETE FROM parts"); err == nil {
		t.Error("non-SELECT should fail")
	}
	if _, err := fed.Query(context.Background(), "SELECT * FROM ghost"); err == nil {
		t.Error("unknown global table should fail")
	}
	if _, err := fed.Query(context.Background(), "not sql"); err == nil {
		t.Error("parse error should surface")
	}
}

func TestUnqualify(t *testing.T) {
	e, _ := sqlparse.ParseExpr("p.a = 1 AND p.b IN (2, p.c) AND UPPER(p.d) LIKE 'X%' AND p.e BETWEEN 1 AND 2 AND NOT p.f IS NULL")
	u := unqualify(e)
	if strings.Contains(u.String(), "p.") {
		t.Errorf("unqualify left qualifiers: %s", u)
	}
}

func TestLoadBalancingUnderConcurrency(t *testing.T) {
	// Two identical replicas; with bids reflecting queue depth, concurrent
	// queries should spread across both.
	fed := New(NewAgoric())
	a, b := NewSite("a"), NewSite("b")
	cost := CostModel{Latency: 200 * time.Microsecond, PerRow: 10 * time.Microsecond, LoadPenalty: 1}
	a.SetCost(cost)
	b.SetCost(cost)
	_ = fed.AddSite(a)
	_ = fed.AddSite(b)
	frag := NewFragment("f", nil, a, b)
	if _, err := fed.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	_ = fed.LoadFragment("parts", frag, []storage.Row{row("P1", "ink", 1, "x")})
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func() {
			_, err := fed.Query(context.Background(), "SELECT sku FROM parts")
			done <- err
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Served(), b.Served()
	if sa+sb != 32 {
		t.Fatalf("served %d + %d != 32", sa, sb)
	}
	if sa == 0 || sb == 0 {
		t.Errorf("no balancing: a=%d b=%d", sa, sb)
	}
}

// TestSelfJoinScansEveryAlias: a table read under two aliases is scanned
// once, so a predicate only one alias carries cannot be pushed to the
// shared scan — the other alias must still see every row.
func TestSelfJoinScansEveryAlias(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	res, err := fed.Query(context.Background(),
		"SELECT a.sku, b.sku FROM parts a JOIN parts b ON a.region <> b.region WHERE a.price < 50")
	if err != nil {
		t.Fatal(err)
	}
	// a ∈ {E1, E2} (price < 50), b ∈ {W1, W2} (the other region).
	if len(res.Rows) != 4 {
		t.Fatalf("self-join rows = %v, want the 4 east×west pairs", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].Str()[0] != 'E' || r[1].Str()[0] != 'W' {
			t.Fatalf("self-join row %v, want an east a and a west b", r)
		}
	}
}
