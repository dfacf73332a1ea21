package federation

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/exec"
	"cohera/internal/plan"
	"cohera/internal/remote"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// The pushdown differential harness: capability-aware σ/π/limit
// pushdown is an optimization, so a query must return the identical
// row multiset whether predicates run at the source's scan, at the
// site in front of it, or anywhere in between. We pin that by running
// a seeded corpus across three regimes of the same federation —
// pushdown on (every site a full engine), weak (every site reads
// through a source that can evaluate nothing), and mixed (per-site
// sources from eq-only to nothing) — on both entry points, each
// checked against one engine holding every row (hotelsReference),
// including under fault-injected failover and degraded PartialResults.

// pushdownRegimes builds one hotels federation per pushdown regime.
func pushdownRegimes(t *testing.T) map[string]*Federation {
	t.Helper()
	feds := map[string]*Federation{}
	for _, name := range []string{"on", "weak", "mixed"} {
		fed, _ := hotelsFed(t)
		switch name {
		case "weak":
			capAll(t, fed, plan.PushCaps{})
		case "mixed":
			applyMixedCaps(t, fed)
		}
		feds[name] = fed
	}
	return feds
}

// hotelsSites names every site of hotelsFed.
var hotelsSites = []string{"h0-0", "h1-0", "h1-1", "h2-0", "h3-0", "h3-1"}

// capAll makes every site of a hotelsFed federation read through a
// source advertising caps, and returns the sources.
func capAll(t *testing.T, fed *Federation, caps plan.PushCaps) []*cappedSource {
	t.Helper()
	var srcs []*cappedSource
	for _, name := range hotelsSites {
		s, err := fed.Site(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, capStored(t, s, "hotels", caps))
	}
	return srcs
}

// applyMixedCaps fronts the sites of a hotelsFed federation (sites
// h{frag}-{replica}; fragments 1 and 3 replicated) with sources of
// every capability shape: eq-only, σ-incapable, π-incapable,
// limit-incapable. h1-1 stays a full engine.
func applyMixedCaps(t *testing.T, fed *Federation) {
	t.Helper()
	caps := map[string]plan.PushCaps{
		"h0-0": {Classes: []plan.FilterClass{plan.ClassEq}}, // eq-only, no π, no limit
		"h1-0": {},                                          // nothing pushable
		"h2-0": {Classes: []plan.FilterClass{plan.ClassRange, plan.ClassLike, plan.ClassNull}, Project: true},
		"h3-0": {Project: true, Limit: true},                        // π and limit but no σ
		"h3-1": {Classes: plan.FullPushCaps().Classes, Limit: true}, // σ and limit but no π
	}
	for name, c := range caps {
		s, err := fed.Site(name)
		if err != nil {
			t.Fatalf("mixed caps: %v", err)
		}
		capStored(t, s, "hotels", c)
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
	for _, name := range []string{"weak", "on", "mixed"} {
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
// every other open: queries fail over, sometimes from a weak source's
// site to a full engine or back, and the three regimes must still
// agree row for row.
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
// trace: with a fully-pushable predicate, a LIMIT larger than the
// result never ships more than the matching rows, so the per-fragment
// pushed counts sum to the pre-limit cardinality. (A LIMIT that
// actually cuts the stream cancels producers before their completion
// records fold into the trace, so the accounting claim is made on the
// uncut run; the cut behavior itself is covered by the corpus'
// Unordered queries.)
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
	for _, pushed := range trace.PushedRows {
		total += pushed
	}
	if total != len(rows) || len(trace.ResidualDropped) != 0 {
		t.Fatalf("pushed = %d, residual dropped %v, result = %d rows", total, trace.ResidualDropped, len(rows))
	}
	// chain-03 lives in exactly one fragment; everything else pruned or
	// shipped zero rows after the pushed predicate. The projection keeps
	// the predicate column alongside the selected one (the sites are
	// sent the whole predicate), so each row ships 2 cells.
	if trace.CellsShipped != len(rows)*2 {
		t.Fatalf("cells shipped = %d, want %d (σ pushed, π = hotel+chain)", trace.CellsShipped, 2*len(rows))
	}
}

// TestCapabilityChangeBetweenPlanAndExecution plans (EXPLAIN) against
// full-capability sources, revokes every capability, executes, then
// restores them: every run returns the same rows, because the split
// re-reads the source's live capability record at each open.
func TestCapabilityChangeBetweenPlanAndExecution(t *testing.T) {
	fed, _ := hotelsFed(t)
	srcs := capAll(t, fed, plan.FullPushCaps())
	sql := "SELECT hotel, city FROM hotels WHERE available >= 5 AND city = 'Denver'"
	stmt, err := sqlparse.Parse("EXPLAIN " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Explain(context.Background(), stmt.(sqlparse.ExplainStmt)); err != nil {
		t.Fatal(err)
	}
	before := multiset(runBothPaths(t, fed, sql, false))
	full := shippedBy(srcs)

	for _, src := range srcs {
		src.setCaps(plan.PushCaps{}) // capability revoked after planning
	}
	after := multiset(runBothPaths(t, fed, sql, false))
	if !sameMultiset(before, after) {
		t.Fatal("capability change between plan and execution changed the result")
	}
	// With nothing pushable the sources shipped every row and the sites
	// did the filtering.
	if weak := shippedBy(srcs) - full; weak <= full {
		t.Fatalf("sources shipped %d rows after revoking every capability, %d before", weak, full)
	}
	for _, src := range srcs {
		src.setCaps(plan.FullPushCaps())
	}
	if restored := multiset(runBothPaths(t, fed, sql, false)); !sameMultiset(before, restored) {
		t.Fatal("restoring the capabilities changed the result")
	}
}

// TestFailoverToWeakerPeerMidQuery streams from a full-capability
// replica that dies after shipping a prefix; the fragment fails over
// mid-query to a peer whose source can evaluate nothing, and the
// primary-key dedupe absorbs the replayed prefix. The result must
// match the predicate exactly: the weak peer's source ships every row
// and its site drops the one the predicate rejects before the wire.
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
	weakSrc := capStored(t, weak, "parts", plan.PushCaps{}) // peer can evaluate nothing at its source
	fed.StreamBatchRows = 1                                 // ship the prefix row by row before the death

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
	// The weak source shipped everything; its site dropped P4.
	if n := weakSrc.shipped.Load(); n != 4 || trace.PushedRows["parts/all"] != 3 {
		t.Fatalf("source shipped %d, site shipped %d; want 4 and 3", n, trace.PushedRows["parts/all"])
	}
}

// wireFrame is one /fetchstream frame: the kind byte, the uvarint
// payload length, the payload.
func wireFrame(kind byte, payload []byte) []byte {
	return append(binary.AppendUvarint([]byte{kind}, uint64(len(payload))), payload...)
}

// TestOldServerPushdownFallback covers the wire-compatibility path: a
// peer of an earlier release leads every /fetchstream body with a
// pushdown ack M frame. The client skips it — same rows, no error —
// and a query pushed to such a peer answers what it answers without
// the ack.
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
	var ackFirst atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/fetchstream" && ackFirst.Load() {
			w.Header().Set("Content-Type", "application/x-cohera-frames")
			w.Write(wireFrame('M', []byte(`{"pushed":{"where":true,"limit":true}}`)))
		}
		srv.ServeHTTP(w, r)
	}))
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
	withoutAck := runBothPaths(t, fed, sql, false)
	ackFirst.Store(true)
	withAck := runBothPaths(t, fed, sql, false)
	if len(withAck) == 0 || !sameMultiset(multiset(withoutAck), multiset(withAck)) {
		t.Fatalf("a leading ack changed the result: %d rows, %d without it", len(withAck), len(withoutAck))
	}
}

// TestLyingProjectionAckFailsOver: a peer whose rows are narrower than
// the projection asked of it (here it ships the sku alone, after an
// earlier release's ack naming that column) fails the fragment as a
// site failure. Reading its rows would hand the coordinator 1-wide
// rows as 2-wide ones: SELECT sku, price would return a short row, and
// SELECT price, sku would index past the row in the merge's
// projection. With a healthy replica behind it, the fragment fails
// over and the query answers in full.
func TestLyingProjectionAckFailsOver(t *testing.T) {
	tbl := storage.NewTable(schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "price", Kind: value.KindFloat},
		{Name: "qty", Kind: value.KindInt},
	}, "sku"))
	for i := 0; i < 3; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewString(fmt.Sprintf("P%d", i)), value.NewFloat(1.5), value.NewInt(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	good := remote.NewServer()
	good.PublishTable(tbl)
	goodPeer := httptest.NewServer(good)
	defer goodPeer.Close()
	var lies atomic.Int64
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fetchstream" {
			good.ServeHTTP(w, r)
			return
		}
		lies.Add(1)
		w.Header().Set("Content-Type", "application/x-cohera-frames")
		w.Write(wireFrame('M', []byte(`{"pushed":{"cols":["sku"]}}`)))
		w.Write(wireFrame('R', value.AppendRow(nil, storage.Row{value.NewString("P1")})))
		w.Write(wireFrame('M', []byte(`{"eof":true}`)))
	}))
	defer liar.Close()
	// federate puts the fragment on one replica per URL, the first the
	// cheapest bid.
	federate := func(urls ...string) *Federation {
		fed := New(NewAgoric())
		var sites []*Site
		for i, url := range urls {
			sources, err := remote.Dial(url, "").Tables(context.Background())
			if err != nil || len(sources) != 1 {
				t.Fatalf("tables: %v (%d sources)", err, len(sources))
			}
			site := NewSite(fmt.Sprintf("replica-%d", i))
			site.SetCost(CostModel{Latency: time.Duration(i) * time.Millisecond})
			if err := fed.AddSite(site); err != nil {
				t.Fatal(err)
			}
			site.AddSource(sources[0])
			sites = append(sites, site)
		}
		if _, err := fed.DefineTable(tbl.Def(), NewFragment("all", nil, sites...)); err != nil {
			t.Fatal(err)
		}
		return fed
	}
	ctx := context.Background()
	for _, sql := range []string{"SELECT sku, price FROM parts", "SELECT price, sku FROM parts"} {
		fed := federate(liar.URL)
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

		before := lies.Load()
		fed = federate(liar.URL, goodPeer.URL)
		if res, err := fed.Query(ctx, sql); err != nil || len(res.Rows) != tbl.Len() || len(res.Rows[0]) != 2 {
			t.Errorf("%s: Query over the liar then a good replica = %v, %v; want %d rows of 2 cells", sql, res, err, tbl.Len())
		}
		st, _, err = fed.QueryStream(ctx, sql)
		if err != nil {
			t.Fatal(err)
		}
		if rows, err := storage.CollectRows(st); err != nil || len(rows) != tbl.Len() {
			t.Errorf("%s: QueryStream over the liar then a good replica = %d rows, %v; want %d", sql, len(rows), err, tbl.Len())
		}
		if lies.Load() < before+2 {
			t.Errorf("%s: the liar served %d requests, want it tried first by both entry points", sql, lies.Load()-before)
		}
	}
}

// TestExplainAnalyzePushedResidualSums is the acceptance check on the
// observability contract: on a failover-free run, EXPLAIN ANALYZE's
// per-fragment pushed counts must sum to the result cardinality, in
// every capability regime, with no residual left to the coordinator.
func TestExplainAnalyzePushedResidualSums(t *testing.T) {
	for _, regime := range []string{"on", "weak", "mixed"} {
		fed, _ := hotelsFed(t)
		switch regime {
		case "weak":
			capAll(t, fed, plan.PushCaps{})
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
		for _, pushed := range rep.Trace.PushedRows {
			sum += pushed
		}
		if sum != rep.ResultRows || len(rep.Trace.ResidualDropped) != 0 {
			t.Fatalf("regime %q: Σpushed = %d, residual dropped %v, result = %d rows",
				regime, sum, rep.Trace.ResidualDropped, rep.ResultRows)
		}
		// Per-fragment stage rows agree with the trace's accounting.
		for key, n := range rep.FragmentRows() {
			var want int64
			for tk, pushed := range rep.Trace.PushedRows {
				if key[:len(key)-len("@"+rep.Trace.FragmentSites[tk])] == tk {
					want = int64(pushed)
				}
			}
			if n != want {
				t.Fatalf("regime %q: fragment stage %s rows=%d, trace says %d", regime, key, n, want)
			}
		}
		// The rendered plan carries the counts the operator reads.
		var lines []string
		for _, r := range rep.Render().Rows {
			lines = append(lines, r[0].Str())
		}
		text := strings.Join(lines, "\n")
		if !strings.Contains(text, "pushed=") || strings.Contains(text, "residual_dropped") {
			t.Fatalf("regime %q: rendered accounting:\n%s", regime, text)
		}
	}
}

// wideReference is one engine holding wideFed's rows.
func wideReference(t *testing.T) *exec.Database {
	t.Helper()
	fed, _ := wideFed(t)
	res, err := fed.Query(context.Background(), "SELECT * FROM wide")
	if err != nil {
		t.Fatal(err)
	}
	gt, err := fed.Table("wide")
	if err != nil {
		t.Fatal(err)
	}
	db := exec.NewDatabase()
	if err := db.LoadRows(gt.Def, res.Rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestProjectionPushdownOracle re-checks the legacy projection-pushdown
// scenarios against one engine holding every row: the wide-table
// queries of pushdown_test.go must return the reference's multiset
// whether the site is a full engine or reads through a source that can
// evaluate nothing.
func TestProjectionPushdownOracle(t *testing.T) {
	ref := wideReference(t)
	for _, sql := range []string{
		"SELECT c1 FROM wide WHERE id < 10",
		"SELECT * FROM wide WHERE id = 3",
		"SELECT c2, COUNT(*) FROM wide GROUP BY c2 ORDER BY c2 LIMIT 3",
		"SELECT c1, c3 FROM wide WHERE id >= 5 AND c0 LIKE 'v0-1%'",
	} {
		want, err := ref.Exec(sql)
		if err != nil {
			t.Fatalf("%s: reference: %v", sql, err)
		}
		for _, weak := range []bool{false, true} {
			fed, frag := wideFed(t)
			if weak {
				capStored(t, frag.Replicas()[0], "wide", plan.PushCaps{})
			}
			got, err := fed.Query(context.Background(), sql)
			if err != nil {
				t.Fatalf("%s: weak=%v: %v", sql, weak, err)
			}
			if !sameMultiset(multiset(got.Rows), multiset(want.Rows)) {
				t.Fatalf("%s: weak=%v: got %v, reference %v", sql, weak, got.Rows, want.Rows)
			}
		}
	}
}

// TestMixedCapsShipMoreCellsThanFull sanity-checks that the capability
// model actually bites: σ-incapable sources ship more rows than
// full-capability ones for the same selective query, and their sites
// drop the difference before the wire, so the coordinator receives the
// same cells either way.
func TestMixedCapsShipMoreCellsThanFull(t *testing.T) {
	full, _ := hotelsFed(t)
	weak, _ := hotelsFed(t)
	fullSrcs := capAll(t, full, plan.FullPushCaps())
	weakSrcs := capAll(t, weak, plan.PushCaps{})
	sql := "SELECT hotel FROM hotels WHERE available >= 12"
	_, ft, err := full.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	_, wt, err := weak.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if f, w := shippedBy(fullSrcs), shippedBy(weakSrcs); f >= w {
		t.Fatalf("full-caps sources shipped %d rows, weak ones %d — pushdown saved nothing", f, w)
	}
	if ft.CellsShipped != wt.CellsShipped {
		t.Fatalf("coordinator received %d cells from full sites, %d from weak ones", ft.CellsShipped, wt.CellsShipped)
	}
}
