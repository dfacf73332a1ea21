package federation

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cohera/internal/fault"
	"cohera/internal/resilience"
)

// TestSentinelWrapChains pins the errors.Is contract of the availability
// sentinels through every wrap depth callers see.
func TestSentinelWrapChains(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()

	east, err := fed.Site("east-1")
	if err != nil {
		t.Fatal(err)
	}

	// Liveness flag → ErrSiteDown.
	east.SetDown(true)
	_, err = subQuery(ctx, east, "parts", nil, nil)
	if !errors.Is(err, ErrSiteDown) {
		t.Fatalf("down site: want ErrSiteDown, got %v", err)
	}
	if errors.Is(err, ErrBreakerOpen) || errors.Is(err, ErrSiteFailure) {
		t.Fatalf("down site error should not classify as breaker/transient: %v", err)
	}

	// A whole-query failure over a dead fragment wraps ErrNoReplica AND
	// the last replica's ErrSiteDown.
	_, _, err = fed.QueryTraced(ctx, "SELECT sku FROM parts")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("dead fragment: want ErrNoReplica, got %v", err)
	}
	if !errors.Is(err, ErrSiteDown) {
		t.Fatalf("dead fragment: chain should retain ErrSiteDown, got %v", err)
	}
	if !strings.Contains(err.Error(), "east") {
		t.Fatalf("dead fragment error should name the fragment: %v", err)
	}
	east.SetDown(false)

	// Fault hook → ErrSiteFailure wrapping the hook's own error.
	inj := fault.New("east-hook", fault.Config{FailFirst: 1, Seed: 1})
	east.SetFaultHook(inj.Inject)
	_, err = subQuery(ctx, east, "parts", nil, nil)
	if !errors.Is(err, ErrSiteFailure) {
		t.Fatalf("hook failure: want ErrSiteFailure, got %v", err)
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("hook failure: chain should retain fault.ErrInjected, got %v", err)
	}
	east.SetFaultHook(nil)

	// Forced-open breaker → ErrBreakerOpen.
	east.Breaker().Clock = (&fault.ManualClock{}).Now
	for i := 0; i < 10; i++ {
		east.Breaker().RecordFailure()
	}
	_, err = subQuery(ctx, east, "parts", nil, nil)
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker: want ErrBreakerOpen, got %v", err)
	}
	east.Breaker().Reset()
	if _, err = subQuery(ctx, east, "parts", nil, nil); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

// TestPartialResultsDegradedSelect is the graceful-degradation contract:
// with PartialResults on, losing every replica of one fragment yields
// the live fragments' rows plus a typed per-fragment error.
func TestPartialResultsDegradedSelect(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	east, _ := fed.Site("east-1")
	east.SetDown(true)

	// Default mode: the query fails outright.
	if _, _, err := fed.QueryTraced(ctx, "SELECT sku FROM parts"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("strict mode should fail with ErrNoReplica, got %v", err)
	}

	fed.PartialResults = true
	res, trace, err := fed.QueryTraced(ctx, "SELECT sku FROM parts ORDER BY sku")
	if err != nil {
		t.Fatalf("degraded query should succeed: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("degraded rows = %d, want 2 (west only)", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !strings.HasPrefix(r[0].String(), "W") {
			t.Fatalf("unexpected row %v from dead fragment", r)
		}
	}
	if !trace.Degraded {
		t.Fatal("trace should be marked Degraded")
	}
	fe, ok := trace.FragmentErrors["parts/east"]
	if !ok {
		t.Fatalf("FragmentErrors should name parts/east, got %v", trace.FragmentErrors)
	}
	if !errors.Is(fe, ErrNoReplica) || !errors.Is(fe, ErrSiteDown) {
		t.Fatalf("fragment error should wrap ErrNoReplica and ErrSiteDown: %v", fe)
	}
	if _, live := trace.FragmentSites["parts/west"]; !live {
		t.Fatal("live fragment should still be recorded in FragmentSites")
	}

	// Recovery: faults clear, the same query is whole again.
	east.SetDown(false)
	res, trace, err = fed.QueryTraced(ctx, "SELECT sku FROM parts")
	if err != nil || len(res.Rows) != 4 || trace.Degraded {
		t.Fatalf("recovered query: rows=%d degraded=%v err=%v", len(res.Rows), trace.Degraded, err)
	}
}

// TestPartialResultsSemanticErrorStillFails: degradation only covers
// availability; a malformed statement must not half-answer.
func TestPartialResultsSemanticErrorStillFails(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	fed.PartialResults = true
	if _, _, err := fed.QueryTraced(context.Background(), "SELECT nope FROM parts"); err == nil {
		t.Fatal("unknown column should fail even in partial mode")
	}
}

// TestBreakerLifecycleOnSite drives a site's breaker open with a fault
// hook, verifies it sheds load while open, and closes it again through
// half-open probes once faults clear — the scoreboard tracking every
// step.
func TestBreakerLifecycleOnSite(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	east, _ := fed.Site("east-1")

	clock := &fault.ManualClock{}
	br := east.Breaker()
	br.FailureThreshold = 2
	br.OpenTimeout = time.Second
	br.HalfOpenSuccesses = 2
	br.Clock = clock.Now

	inj := fault.New("east-chaos", fault.Config{ErrorRate: 1, Seed: 7})
	east.SetFaultHook(inj.Inject)

	// Sustained faults trip the breaker at the threshold.
	for i := 0; i < 2; i++ {
		if _, err := subQuery(ctx, east, "parts", nil, nil); !errors.Is(err, ErrSiteFailure) {
			t.Fatalf("fault %d: want ErrSiteFailure, got %v", i, err)
		}
	}
	if br.State() != resilience.Open {
		t.Fatalf("breaker state = %v, want Open", br.State())
	}
	if east.Available() || east.HealthScore() != 0 {
		t.Fatalf("open site should be unavailable with score 0, got %v/%v", east.Available(), east.HealthScore())
	}
	if _, err := subQuery(ctx, east, "parts", nil, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker should reject without running the hook, got %v", err)
	}

	// Scoreboard reflects the outage.
	var eastRow SiteHealth
	for _, h := range fed.Scoreboard() {
		if h.Site == "east-1" {
			eastRow = h
		}
	}
	if eastRow.Site != "east-1" || eastRow.Breaker != resilience.Open || eastRow.Score != 0 {
		t.Fatalf("scoreboard row = %+v, want Open/0", eastRow)
	}

	// Faults clear; after the open timeout the half-open probes re-close.
	inj.SetEnabled(false)
	clock.Advance(2 * time.Second)
	for i := 0; i < 2; i++ {
		if _, err := subQuery(ctx, east, "parts", nil, nil); err != nil {
			t.Fatalf("probe %d should pass: %v", i, err)
		}
	}
	if br.State() != resilience.Closed {
		t.Fatalf("breaker state = %v, want Closed after probes", br.State())
	}
	if east.HealthScore() != 1 {
		t.Fatalf("healthy score = %v, want 1", east.HealthScore())
	}
}

// TestRankingSkipsOpenBreaker: the health scoreboard replaces the
// binary down flag in replica selection, so a breaker-open replica is
// never even tried.
func TestRankingSkipsOpenBreaker(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1, _ := fed.Site("west-1")
	west1.Breaker().Clock = (&fault.ManualClock{}).Now
	for i := 0; i < 10; i++ {
		west1.Breaker().RecordFailure()
	}

	ranked := fed.Optimizer().Rank(ctx, fragWest, 2)
	for _, s := range ranked {
		if s.Name() == "west-1" {
			t.Fatal("open-breaker site should sit the auction out")
		}
	}

	_, trace, err := fed.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if got := trace.FragmentSites["parts/west"]; got != "west-2" {
		t.Fatalf("west fragment served by %q, want west-2", got)
	}

	// The centralized baseline's snapshot sees the same scoreboard.
	cent := NewCentralized(fed)
	cent.ProbeLatency = 0
	cent.RefreshStats(ctx)
	for _, s := range cent.Rank(ctx, fragWest, 2) {
		if s.Name() == "west-1" {
			t.Fatal("centralized snapshot should exclude the open-breaker site")
		}
	}
}

// TestDMLAllReplicasDownTyped is the silent-degradation regression test:
// a write whose targeted fragment has no available replica must fail
// with ErrNoReplica naming the fragment, not report success.
func TestDMLAllReplicasDownTyped(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	west1, _ := fed.Site("west-1")
	west2, _ := fed.Site("west-2")
	west1.SetDown(true)
	west2.SetDown(true)

	// UPDATE targeting only the dead fragment.
	_, dr, _, err := fed.ExecTraced(ctx, "UPDATE parts SET price = 1 WHERE region = 'west'")
	if !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v (result %+v)", err, dr)
	}
	if !errors.Is(err, ErrSiteDown) {
		t.Fatalf("chain should retain the replica's ErrSiteDown: %v", err)
	}
	if !strings.Contains(err.Error(), "west") {
		t.Fatalf("error should name the lost fragment: %v", err)
	}

	// DELETE takes the same path.
	if _, _, _, err := fed.ExecTraced(ctx, "DELETE FROM parts WHERE region = 'west'"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("delete: want ErrNoReplica, got %v", err)
	}

	// INSERT routed to the dead fragment fails the same way.
	_, _, _, err = fed.ExecTraced(ctx, "INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'crate', 5, 'west')")
	if !errors.Is(err, ErrNoReplica) || !errors.Is(err, ErrSiteDown) {
		t.Fatalf("insert: want ErrNoReplica wrapping ErrSiteDown, got %v", err)
	}

	// The live fragment still accepts writes; only one replica down is
	// best-effort, reported, and not an error.
	west2.SetDown(false)
	_, dr, trace, err := fed.ExecTraced(ctx, "UPDATE parts SET price = 2 WHERE region = 'west'")
	if err != nil {
		t.Fatalf("one live replica should carry the write: %v", err)
	}
	if len(dr.SkippedReplicas) != 1 || !strings.Contains(dr.SkippedReplicas[0], "west-1") {
		t.Fatalf("skipped replicas = %v, want west@west-1", dr.SkippedReplicas)
	}
	if got := trace.FragmentSites["parts/west"]; got != "west-2" {
		t.Fatalf("write recorded at %q, want west-2", got)
	}
}

// TestDMLNoBlindRetry pins the no-blind-retry rule for non-idempotent
// writes: when a fault strikes one replica after another has applied a
// relative UPDATE, nothing re-runs the statement — the increment lands
// exactly once per live replica and the miss is reported, not retried.
func TestDMLNoBlindRetry(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	west1, _ := fed.Site("west-1")
	west2, _ := fed.Site("west-2")

	priceAt := func(s *Site) float64 {
		res, err := s.DB().Exec("SELECT price FROM parts WHERE sku = 'W1'")
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0][0].Float()
	}
	before1, before2 := priceAt(west1), priceAt(west2)

	// west-2's hook fails exactly once: the fault lands after west-1 (an
	// earlier replica in the fragment's order) has already applied the
	// non-idempotent increment.
	inj := fault.New("west2-once", fault.Config{FailFirst: 1, Seed: 1})
	west2.SetFaultHook(inj.Inject)

	_, dr, _, err := fed.ExecTraced(ctx, "UPDATE parts SET price = price + 1 WHERE sku = 'W1'")
	if err != nil {
		t.Fatalf("best-effort write should succeed on the live replica: %v", err)
	}
	if len(dr.SkippedReplicas) != 1 || !strings.Contains(dr.SkippedReplicas[0], "west-2") {
		t.Fatalf("skipped = %v, want the faulted west-2 copy", dr.SkippedReplicas)
	}
	if got := priceAt(west1); got != before1+1 {
		t.Fatalf("west-1 price = %v, want exactly one increment from %v (no blind retry)", got, before1)
	}
	if got := priceAt(west2); got != before2 {
		t.Fatalf("west-2 price = %v, want untouched %v (fault skipped the copy)", got, before2)
	}

	// Row count is stable too: no retry duplicated the row anywhere.
	res, err := fed.Query(ctx, "SELECT sku FROM parts WHERE sku = 'W1'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("rows for W1 = %d (err %v), want 1", len(res.Rows), err)
	}
}

// TestFaultHookRecoveryWithFailover: a transient hook fault on one west
// replica fails over to the other transparently — the query succeeds
// and the failover is counted.
func TestFaultHookRecoveryWithFailover(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	west1, _ := fed.Site("west-1")
	west2, _ := fed.Site("west-2")
	for _, s := range []*Site{west1, west2} {
		inj := fault.New(s.Name()+"-flaky", fault.Config{FailFirst: 1, Seed: 3})
		s.SetFaultHook(inj.Inject)
	}

	// Both replicas fail their first call, so the query fails over and
	// still comes up empty-handed: a typed ErrNoReplica.
	if _, _, err := fed.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'west'"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("both replicas faulted: want ErrNoReplica, got %v", err)
	}

	// Second attempt: FailFirst drained, both replicas are healthy again.
	res, trace, err := fed.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatalf("after faults drain: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if trace.Degraded {
		t.Fatal("healthy query must not be degraded")
	}
}
