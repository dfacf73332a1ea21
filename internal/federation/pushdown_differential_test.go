package federation

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/exec"
	"cohera/internal/plan"
	"cohera/internal/remote"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/workload"
)

// The pushdown differential harness: capability-aware σ/π/limit
// pushdown is an optimization, so a query must return the identical
// row multiset whether predicates run at the site scan, at the
// coordinator residual stage, or anywhere in between. We pin that by
// running a seeded corpus across three regimes of the same federation
// — pushdown forced on (every site full-capability), forced off
// (DisablePredicatePushdown), and capability-mixed (per-site PushCaps
// overrides from eq-only to nothing) — on both entry points, each
// checked against one engine holding every row (hotelsReference),
// including under fault-injected failover and degraded PartialResults.

// pushdownRegimes builds one hotels federation per pushdown regime.
// The "mixed" regime overrides site capabilities so the planner's
// per-replica split exercises every residual shape: eq-only sites,
// σ-incapable sites, π-incapable sites, limit-incapable sites.
func pushdownRegimes(t *testing.T) map[string]*Federation {
	t.Helper()
	feds := map[string]*Federation{}
	for _, name := range []string{"on", "off", "mixed"} {
		fed, _ := hotelsFed(t)
		switch name {
		case "off":
			fed.DisablePredicatePushdown = true
		case "mixed":
			applyMixedCaps(t, fed)
		}
		feds[name] = fed
	}
	return feds
}

// applyMixedCaps installs per-site capability overrides on a hotelsFed
// federation (sites h{frag}-{replica}; fragments 1 and 3 replicated).
func applyMixedCaps(t *testing.T, fed *Federation) {
	t.Helper()
	overrides := map[string]*plan.PushCaps{
		"h0-0": {Classes: []plan.FilterClass{plan.ClassEq}},      // eq-only, no π, no limit
		"h1-0": {},                                               // nothing pushable
		"h1-1": nil,                                              // full (default)
		"h2-0": {Classes: []plan.FilterClass{plan.ClassRange, plan.ClassLike, plan.ClassNull}, Project: true},
		"h3-0": {Project: true, Limit: true},                     // π and limit but no σ
		"h3-1": {Classes: plan.FullPushCaps().Classes, Limit: true}, // σ and limit but no π
	}
	for name, caps := range overrides {
		s, err := fed.Site(name)
		if err != nil {
			t.Fatalf("mixed caps: %v", err)
		}
		s.SetPushCaps(caps)
	}
}

// runBothPaths executes sql on one federation through both entry
// points and asserts they agree. A LIMIT without a total order
// (unordered) lets each keep any satisfying subset, so those compare by
// cardinality only; everything else must be multiset-identical. The
// streamed rows are returned.
func runBothPaths(t *testing.T, fed *Federation, sql string, unordered bool) []storage.Row {
	t.Helper()
	ctx := context.Background()
	res, err := fed.Query(ctx, sql)
	if err != nil {
		t.Fatalf("%s: materialized: %v", sql, err)
	}
	st, _, err := fed.QueryStream(ctx, sql)
	if err != nil {
		t.Fatalf("%s: stream open: %v", sql, err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatalf("%s: stream drain: %v", sql, err)
	}
	if len(rows) != len(res.Rows) {
		t.Fatalf("%s: stream %d rows, materialized %d", sql, len(rows), len(res.Rows))
	}
	if !unordered && !sameMultiset(multiset(rows), multiset(res.Rows)) {
		t.Fatalf("%s: stream and materialized multisets differ", sql)
	}
	return rows
}

// checkPushdownDifferential is the shared oracle: one generated query,
// every regime, both entry points — each answer the reference's.
func checkPushdownDifferential(t *testing.T, feds map[string]*Federation, ref *exec.Database, q workload.GenQuery) {
	t.Helper()
	for _, name := range []string{"off", "on", "mixed"} {
		checkDifferential(t, feds[name], ref, q)
	}
}

// TestPushdownDifferentialModes runs the seeded 650-query corpus
// across all three pushdown regimes and both entry points.
func TestPushdownDifferentialModes(t *testing.T) {
	feds := pushdownRegimes(t)
	ref := hotelsReference(t)
	for _, q := range workload.HotelSelects(650, 20250809) {
		checkPushdownDifferential(t, feds, ref, q)
	}
}

// TestPushdownDifferentialUnderFaultInjection re-runs a corpus slice
// with the preferred replica of each replicated fragment refusing
// every other open: queries fail over (sometimes mid-plan, after the
// capability split already happened against the flaky replica) and
// the three regimes must still agree row for row.
func TestPushdownDifferentialUnderFaultInjection(t *testing.T) {
	feds := pushdownRegimes(t)
	for _, fed := range feds {
		for _, name := range []string{"h1-0", "h3-0"} {
			s, err := fed.Site(name)
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			s.SetFaultHook(func(context.Context) error {
				if calls.Add(1)%2 == 1 {
					return errors.New("injected transient fault")
				}
				return nil
			})
			// Keep the breaker from latching open on the injected faults:
			// the point is repeated per-query failover, not a lockout.
			s.Breaker().FailureThreshold = 1 << 30
		}
	}
	ref := hotelsReference(t)
	for _, q := range workload.HotelSelects(150, 424242) {
		checkPushdownDifferential(t, feds, ref, q)
	}
}

// TestPushdownDifferentialDegraded loses every replica of one fragment
// under PartialResults in all three regimes: the degraded results must
// still be identical multisets.
func TestPushdownDifferentialDegraded(t *testing.T) {
	feds := pushdownRegimes(t)
	for _, fed := range feds {
		fed.PartialResults = true
		for _, name := range []string{"h2-0"} {
			s, err := fed.Site(name)
			if err != nil {
				t.Fatal(err)
			}
			s.SetDown(true)
		}
	}
	ref := hotelsReference(t, 2)
	for _, q := range workload.HotelSelects(150, 777) {
		checkPushdownDifferential(t, feds, ref, q)
	}
	// The degradation record agrees across regimes too.
	for name, fed := range feds {
		_, trace, err := fed.QueryTraced(context.Background(), "SELECT hotel FROM hotels")
		if err != nil {
			t.Fatalf("regime %q: %v", name, err)
		}
		if !trace.Degraded || !errors.Is(trace.FragmentErrors["hotels/f2"], ErrNoReplica) {
			t.Fatalf("regime %q: degraded=%v fragment error=%v",
				name, trace.Degraded, trace.FragmentErrors["hotels/f2"])
		}
	}
}

// TestPushdownLimitAccounting pins the limit-pushdown contract on the
// trace: with full capabilities and a fully-pushable predicate, a
// LIMIT larger than the result never ships more than the matching
// rows, and the per-fragment pushed counts minus residual drops sum to
// the pre-limit cardinality. (A LIMIT that actually cuts the stream
// cancels producers before their completion records fold into the
// trace, so the accounting claim is made on the uncut run; the cut
// behavior itself is covered by the corpus' Unordered queries.)
func TestPushdownLimitAccounting(t *testing.T) {
	fed, _ := hotelsFed(t)
	st, trace, err := fed.QueryStream(context.Background(),
		"SELECT hotel FROM hotels WHERE chain = 'chain-03' LIMIT 1000")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for key, pushed := range trace.PushedRows {
		total += pushed - trace.ResidualDropped[key]
		if trace.ResidualDropped[key] != 0 {
			t.Errorf("fragment %s dropped %d rows at the coordinator despite full site capabilities",
				key, trace.ResidualDropped[key])
		}
	}
	if total != len(rows) {
		t.Fatalf("pushed−residual = %d, result = %d rows", total, len(rows))
	}
	// chain-03 lives in exactly one fragment; everything else pruned or
	// shipped zero rows after the pushed predicate. The projection keeps
	// the predicate column alongside the selected one (the split is
	// per-replica, after projection planning), so each row ships 2 cells.
	if trace.CellsShipped != len(rows)*2 {
		t.Fatalf("cells shipped = %d, want %d (σ pushed, π = hotel+chain)", trace.CellsShipped, 2*len(rows))
	}
}

// TestCapabilityChangeBetweenPlanAndExecution plans (EXPLAIN) against
// a full-capability site, weakens the site, executes, then restores
// it: every run returns the same rows, because the split re-reads the
// live capability record per replica at execution time.
func TestCapabilityChangeBetweenPlanAndExecution(t *testing.T) {
	fed, _ := hotelsFed(t)
	sql := "SELECT hotel, city FROM hotels WHERE available >= 5 AND city = 'Denver'"
	stmt, err := sqlparse.Parse("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Explain(context.Background(), stmt.(sqlparse.ExplainStmt))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Tables[0].Fragments[0].Replicas[0].Push; got != "full" {
		t.Fatalf("planned capability = %q, want full", got)
	}
	before := multiset(runBothPaths(t, fed, sql, false))

	for _, frag := range []string{"h0-0", "h1-0", "h1-1", "h2-0", "h3-0", "h3-1"} {
		s, err := fed.Site(frag)
		if err != nil {
			t.Fatal(err)
		}
		s.SetPushCaps(&plan.PushCaps{}) // capability revoked after planning
	}
	_, trace, err := fed.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	after := multiset(runBothPaths(t, fed, sql, false))
	if !sameMultiset(before, after) {
		t.Fatal("capability change between plan and execution changed the result")
	}
	// With nothing pushable the coordinator's residual stage did the
	// filtering: drops must show up in the trace.
	dropped := 0
	for _, n := range trace.ResidualDropped {
		dropped += n
	}
	if dropped == 0 {
		t.Fatal("expected residual drops after revoking all site capabilities")
	}
}

// TestFailoverToWeakerPeerMidQuery streams from a full-capability
// replica that dies after shipping a prefix; the fragment fails over
// mid-query to a σ-incapable peer and the primary-key dedupe absorbs
// the replayed prefix. The result must match the predicate exactly and
// the trace must show the weak peer serving with residual drops.
func TestFailoverToWeakerPeerMidQuery(t *testing.T) {
	fed := New(NewAgoric())
	strong := NewSite("strong-flaky")
	weak := NewSite("weak-ok")
	// Rank the flaky full-capability replica first, deterministically.
	weak.SetCost(CostModel{Latency: 50 * time.Millisecond})
	for _, s := range []*Site{strong, weak} {
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	weak.SetPushCaps(&plan.PushCaps{}) // peer can evaluate nothing remotely
	all := []storage.Row{
		row("P1", "ink", 3.5, "east"),
		row("P2", "pen", 1.2, "east"),
		row("P3", "drill", 99, "west"),
		row("P4", "press", 12000, "west"),
	}
	strong.AddSource(&flakySource{
		def:  partsDef(),
		rows: all[:2], // ships a prefix, then dies
		onEnd: func(context.Context) error {
			return errors.New("replica died mid-transfer")
		},
	})
	frag := NewFragment("all", nil, strong, weak)
	if _, err := fed.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("parts", frag, all); err != nil {
		t.Fatal(err)
	}
	fed.StreamBatchRows = 1 // ship the prefix row by row before the death

	st, trace, err := fed.QueryStream(context.Background(),
		"SELECT sku FROM parts WHERE price < 100")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	got := sortedFirstCol(rows)
	if len(got) != 3 || got[0] != "P1" || got[1] != "P2" || got[2] != "P3" {
		t.Fatalf("rows after mid-query failover = %v, want [P1 P2 P3]", got)
	}
	if trace.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", trace.Failovers)
	}
	if got := trace.FragmentSites["parts/all"]; got != "weak-ok" {
		t.Fatalf("fragment served by %q, want weak-ok", got)
	}
	// The weak peer shipped everything; the coordinator dropped P4.
	if trace.PushedRows["parts/all"] != 4 || trace.ResidualDropped["parts/all"] != 1 {
		t.Fatalf("pushed=%d dropped=%d, want 4/1",
			trace.PushedRows["parts/all"], trace.ResidualDropped["parts/all"])
	}
}

// TestOldServerPushdownFallback covers the wire-compatibility path: a
// remote server is discovered while push-capable, then starts ignoring
// the pushdown request fields and sending no ack (an old server, or a
// capability lost between discovery and execution). The client detects
// the missing ack and the site re-applies everything locally — same
// rows, no error.
func TestOldServerPushdownFallback(t *testing.T) {
	def := workload.HotelsDef()
	tbl := storage.NewTable(def.Clone("hotels"))
	for _, h := range workload.Hotels(2, 12, 31) {
		for _, hh := range h {
			if _, err := tbl.Insert(workload.HotelRow(hh)); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv := remote.NewServer()
	srv.PublishTable(tbl)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	client := remote.Dial(ts.URL, "")
	sources, err := client.Tables(context.Background())
	if err != nil || len(sources) != 1 {
		t.Fatalf("tables: %v (%d sources)", err, len(sources))
	}
	fed := New(NewAgoric())
	site := NewSite("remote-hotels")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	site.AddSource(sources[0])
	if _, err := fed.DefineTable(def, NewFragment("all", nil, site)); err != nil {
		t.Fatal(err)
	}

	sql := "SELECT hotel FROM hotels WHERE city = 'Denver' AND available >= 3 LIMIT 500"
	withPush := runBothPaths(t, fed, sql, false)

	// The server forgets how to push between queries: requests still
	// carry the fields, but no ack comes back, so the site must fall
	// back to fetch-and-fuse.
	srv.DisablePushdown = true
	withoutAck := runBothPaths(t, fed, sql, false)
	if !sameMultiset(multiset(withPush), multiset(withoutAck)) {
		t.Fatal("old-server fallback changed the result")
	}
}

// TestLyingProjectionAckFailsOver: a peer that acks a projection other
// than the one asked for fails the fragment's open as a site failure.
// Trusting the ack would hand the coordinator 1-wide rows as 2-wide
// ones: SELECT sku, price would return a short row, and SELECT price,
// sku would index past the row in the merge's projection.
func TestLyingProjectionAckFailsOver(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"parts","columns":[{"name":"sku","kind":"string","not_null":true},`+
				`{"name":"price","kind":"float"},{"name":"qty","kind":"int"}],"key":["sku"],`+
				`"push":{"project":true,"limit":true}}]`)
			return
		}
		fmt.Fprint(w, `{"pushed":{"cols":["sku"]}}`+"\n"+`{"rows":[[{"k":"string","s":"P1"}]]}`+"\n"+`{"eof":true}`+"\n")
	}))
	defer peer.Close()
	sources, err := remote.Dial(peer.URL, "").Tables(context.Background())
	if err != nil || len(sources) != 1 {
		t.Fatalf("tables: %v (%d sources)", err, len(sources))
	}
	fed := New(NewAgoric())
	site := NewSite("liar")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	site.AddSource(sources[0])
	if _, err := fed.DefineTable(sources[0].Schema(), NewFragment("all", nil, site)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, sql := range []string{"SELECT sku, price FROM parts", "SELECT price, sku FROM parts"} {
		if res, err := fed.Query(ctx, sql); !errors.Is(err, ErrSiteFailure) {
			t.Errorf("%s: Query = %v, %v; want ErrSiteFailure and no rows", sql, res, err)
		}
		st, _, err := fed.QueryStream(ctx, sql)
		if err == nil {
			var rows []storage.Row
			rows, err = storage.CollectRows(st)
			if len(rows) != 0 {
				t.Errorf("%s: stream yielded rows %v from a lying peer", sql, rows)
			}
		}
		if !errors.Is(err, ErrSiteFailure) {
			t.Errorf("%s: QueryStream error = %v, want ErrSiteFailure", sql, err)
		}
	}
}

// TestExplainAnalyzePushedResidualSums is the acceptance check on the
// observability contract: on a failover-free run, EXPLAIN ANALYZE's
// per-fragment pushed and residual counts must sum to the result
// cardinality, in every capability regime.
func TestExplainAnalyzePushedResidualSums(t *testing.T) {
	for _, regime := range []string{"on", "off", "mixed"} {
		fed, _ := hotelsFed(t)
		switch regime {
		case "off":
			fed.DisablePredicatePushdown = true
		case "mixed":
			applyMixedCaps(t, fed)
		}
		stmt, err := sqlparse.Parse(
			"EXPLAIN ANALYZE SELECT hotel, chain FROM hotels WHERE available >= 4 AND city IN ('Denver', 'Boston')")
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fed.Explain(context.Background(), stmt.(sqlparse.ExplainStmt))
		if err != nil {
			t.Fatalf("regime %q: %v", regime, err)
		}
		if rep.Trace.Failovers != 0 {
			t.Fatalf("regime %q: unexpected failovers", regime)
		}
		sum := 0
		for key, pushed := range rep.Trace.PushedRows {
			sum += pushed - rep.Trace.ResidualDropped[key]
		}
		if sum != rep.ResultRows {
			t.Fatalf("regime %q: Σ(pushed−residual) = %d, result = %d rows",
				regime, sum, rep.ResultRows)
		}
		// The rendered plan carries the counts the operator reads.
		if regime == "off" && len(rep.Trace.ResidualDropped) == 0 && rep.ResultRows != sum {
			t.Fatalf("regime off: residual accounting missing")
		}
		// Per-fragment stage rows agree with the trace's accounting.
		for key, n := range rep.FragmentRows() {
			var want int64
			for tk, pushed := range rep.Trace.PushedRows {
				if key[:len(key)-len("@"+rep.Trace.FragmentSites[tk])] == tk {
					want = int64(pushed - rep.Trace.ResidualDropped[tk])
				}
			}
			if n != want {
				t.Fatalf("regime %q: fragment stage %s rows=%d, trace says %d", regime, key, n, want)
			}
		}
	}
}

// TestProjectionPushdownOracle re-checks the legacy projection-pushdown
// scenarios through the shared differential oracle: the wide-table
// queries of pushdown_test.go must return identical multisets with
// predicate pushdown forced on and off.
func TestProjectionPushdownOracle(t *testing.T) {
	for _, sql := range []string{
		"SELECT c1 FROM wide WHERE id < 10",
		"SELECT * FROM wide WHERE id = 3",
		"SELECT c2, COUNT(*) FROM wide GROUP BY c2 ORDER BY c2 LIMIT 3",
		"SELECT c1, c3 FROM wide WHERE id >= 5 AND c0 LIKE 'v0-1%'",
	} {
		fedOn, _ := wideFed(t)
		fedOff, _ := wideFed(t)
		fedOff.DisablePredicatePushdown = true
		onRows, err := fedOn.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: on: %v", sql, err)
		}
		offRows, err := fedOff.Query(context.Background(), sql)
		if err != nil {
			t.Fatalf("%s: off: %v", sql, err)
		}
		if !sameMultiset(multiset(onRows.Rows), multiset(offRows.Rows)) {
			t.Fatalf("%s: pushdown on/off disagree", sql)
		}
	}
}

// TestMixedCapsShipMoreCellsThanFull sanity-checks that the capability
// model actually bites: a σ-incapable site ships more rows (and cells)
// than a full-capability one for the same selective query.
func TestMixedCapsShipMoreCellsThanFull(t *testing.T) {
	full, _ := hotelsFed(t)
	weak, _ := hotelsFed(t)
	for _, name := range []string{"h0-0", "h1-0", "h1-1", "h2-0", "h3-0", "h3-1"} {
		s, err := weak.Site(name)
		if err != nil {
			t.Fatal(err)
		}
		s.SetPushCaps(&plan.PushCaps{})
	}
	sql := "SELECT hotel FROM hotels WHERE available >= 12"
	_, ft, err := full.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	_, wt, err := weak.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if ft.CellsShipped >= wt.CellsShipped {
		t.Fatalf("full-caps shipped %d cells, weak shipped %d — pushdown saved nothing",
			ft.CellsShipped, wt.CellsShipped)
	}
}
