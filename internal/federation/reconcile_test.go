package federation

import (
	"context"
	"errors"
	"testing"
	"time"

	"cohera/internal/fault"
)

// TestReconcilerReplaysIntents is the core anti-entropy contract: writes
// a replica missed while down are journaled and replayed into it once it
// recovers, converging its content with its peers.
func TestReconcilerReplaysIntents(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	down := fragWest.Replicas()[0]
	live := fragWest.Replicas()[1]
	down.SetDown(true)

	// An INSERT and an UPDATE land while the replica is out.
	if _, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'crane', 7.0, 'west')"); err != nil || len(dr.SkippedReplicas) != 1 {
		t.Fatalf("insert: %+v, %v", dr, err)
	}
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 50 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	if got := fed.Journal().PendingAt(down.Name(), "parts"); got != 2 {
		t.Fatalf("pending at %s = %d, want 2", down.Name(), got)
	}
	if got := fragWest.PendingAt(down); got != 2 {
		t.Fatalf("fragment PendingAt = %d, want 2", got)
	}

	// While still down, reconciliation must not touch it.
	r := NewReconciler(fed)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.Pending != 2 {
		t.Fatalf("down replica drained anyway: %+v", rep)
	}

	// Recovery: replay both intents in order and converge.
	down.SetDown(false)
	rep, err = r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.Pending != 0 || rep.CopyRepaired != 0 {
		t.Fatalf("recovery pass: %+v", rep)
	}
	for _, s := range []string{down.Name(), live.Name()} {
		site, _ := fed.Site(s)
		res, err := site.DB().Exec("SELECT COUNT(*) FROM parts WHERE price = 50")
		if err != nil || res.Rows[0][0].Int() != 3 {
			t.Errorf("replica %s not converged: %v, %v", s, res, err)
		}
	}
	dd, _ := down.DB().TableDigest("parts")
	ld, _ := live.DB().TableDigest("parts")
	if !dd.Equal(ld) {
		t.Fatalf("digests diverge after replay: %+v vs %+v", dd, ld)
	}
}

// TestReconcilerQueuedBehindBacklog: once a replica has a journaled
// backlog, later writes queue behind it (even though the site is back)
// so replay order matches statement order.
func TestReconcilerQueuedBehindBacklog(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1 := fragWest.Replicas()[0]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = price + 1 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	west1.SetDown(false)

	// Site is up but has a backlog: the next write must not jump it.
	_, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'crane', 7.0, 'west')")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.QueuedReplicas) != 1 || dr.QueuedReplicas[0] != "west@west-1" {
		t.Fatalf("queued = %+v", dr)
	}
	if west1.TableRows("parts") != 2 {
		t.Fatalf("queued write applied inline: %d rows", west1.TableRows("parts"))
	}

	r := NewReconciler(fed)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 2 || rep.Pending != 0 {
		t.Fatalf("drain: %+v", rep)
	}
	// Replay preserved order: W9 was inserted at price 7 *after* the
	// increment, so it must still be 7 (not 8) on the repaired replica.
	res, err := west1.DB().Exec("SELECT price FROM parts WHERE sku = 'W9'")
	if err != nil || res.Rows[0][0].Float() != 7.0 {
		t.Fatalf("replay order broken: %v, %v", res, err)
	}
	d1, _ := west1.DB().TableDigest("parts")
	d2, _ := fragWest.Replicas()[1].DB().TableDigest("parts")
	if !d1.Equal(d2) {
		t.Fatalf("digests diverge: %+v vs %+v", d1, d2)
	}
}

// TestReconcilerCopyRepairTornJournal: a torn journal tail cannot be
// replayed safely, so the reconciler falls back to copying the
// fragment's rows from a healthy peer and resetting the journal.
func TestReconcilerCopyRepairTornJournal(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1 := fragWest.Replicas()[0]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 77 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	// Tear the journal tail: the intent is no longer trustworthy.
	grp := fed.Journal().Group(west1.Name(), "parts")
	grp.TruncateTail("west", 3)
	if !grp.Lost() {
		t.Fatal("torn tail should mark the group lost")
	}
	west1.SetDown(false)

	r := NewReconciler(fed)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 {
		t.Fatalf("torn journal must not replay: %+v", rep)
	}
	if rep.CopyRepaired != 1 || rep.Divergent != 1 {
		t.Fatalf("copy repair: %+v", rep)
	}
	if rep.Pending != 0 || grp.Lost() {
		t.Fatalf("journal not reset after copy repair: pending=%d lost=%v", rep.Pending, grp.Lost())
	}
	d1, _ := west1.DB().TableDigest("parts")
	d2, _ := fragWest.Replicas()[1].DB().TableDigest("parts")
	if !d1.Equal(d2) {
		t.Fatalf("digests diverge after copy repair: %+v vs %+v", d1, d2)
	}
	res, err := west1.DB().Exec("SELECT COUNT(*) FROM parts WHERE price = 77")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Fatalf("copied content wrong: %v, %v", res, err)
	}
}

// TestCopyRepairWaitsForWriteInFlight: a statement applied at one
// replica and not yet at the next is no divergence. A repair pass in
// that window must not copy the first replica over the second, or the
// statement lands there twice when it arrives.
func TestCopyRepairWaitsForWriteInFlight(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1, west2 := fragWest.Replicas()[0], fragWest.Replicas()[1]
	gt, err := fed.Table("parts")
	if err != nil {
		t.Fatal(err)
	}
	const bump = "UPDATE parts SET price = price + 1 WHERE sku = 'W1'"
	done := gt.writes.begin()
	if _, err := west1.DB().Exec(bump); err != nil {
		t.Fatal(err)
	}
	r := NewReconciler(fed)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CopyRepaired != 0 {
		t.Fatalf("copied over a write in flight: %+v", rep)
	}
	if _, err := west2.DB().Exec(bump); err != nil {
		t.Fatal(err)
	}
	done()
	if rep, err = r.RunOnce(ctx); err != nil || rep.Divergent != 0 || rep.CopyRepaired != 0 {
		t.Fatalf("after the write landed: %+v, %v", rep, err)
	}
	for _, s := range []*Site{west1, west2} {
		res, err := s.DB().Exec("SELECT price FROM parts WHERE sku = 'W1'")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Float() != 100.5 {
			t.Fatalf("%s: %v, %v; want price 100.5", s.Name(), res, err)
		}
	}
}

// TestReconcilerBreakerGating: repair traffic respects the breaker — an
// open breaker defers both replay and copy-repair until the site is
// genuinely healthy again.
func TestReconcilerBreakerGating(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1 := fragWest.Replicas()[0]
	west1.Breaker().Clock = (&fault.ManualClock{}).Now
	for i := 0; i < 10; i++ {
		west1.Breaker().RecordFailure()
	}

	// A write while the breaker is open: skipped and journaled — the
	// breaker-open replica is recorded as a skipped replica, same as a
	// down one.
	_, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'crane', 7.0, 'west')")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.SkippedReplicas) != 1 || dr.SkippedReplicas[0] != "west@west-1" {
		t.Fatalf("breaker-open replica not reported skipped: %+v", dr)
	}

	r := NewReconciler(fed)
	rep, err := r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 0 || rep.Pending != 1 || rep.CopyRepaired != 0 {
		t.Fatalf("open breaker must gate repair: %+v", rep)
	}
	if rep.Skipped == 0 {
		t.Fatalf("gated repair should be counted skipped: %+v", rep)
	}

	west1.Breaker().Reset()
	rep, err = r.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 1 || rep.Pending != 0 {
		t.Fatalf("post-reset drain: %+v", rep)
	}
	if west1.TableRows("parts") != 3 {
		t.Fatalf("replayed rows = %d, want 3", west1.TableRows("parts"))
	}
}

// TestReconcilerStartStop exercises the background loop: it repairs a
// recovered replica without explicit RunOnce calls and shuts down
// cleanly via Stop (and is safe against double Stop and ctx cancel).
func TestReconcilerStartStop(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	west1 := fragWest.Replicas()[0]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 50 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	west1.SetDown(false)

	r := NewReconciler(fed)
	r.Interval = time.Millisecond
	r.Start(ctx)
	deadline := time.NewTimer(3 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for fed.Journal().PendingTotal() != 0 {
		select {
		case <-deadline.C:
			t.Fatal("background loop never drained the journal")
		case <-tick.C:
		}
	}
	r.Stop()
	r.Stop() // idempotent
	if n := west1.TableRows("parts"); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
	res, err := west1.DB().Exec("SELECT COUNT(*) FROM parts WHERE price = 50")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Fatalf("not converged: %v, %v", res, err)
	}
}

// TestStaleReplicaPricing: both optimizers must rank a replica with
// pending journaled intents below a converged peer, and a read that
// does land on a stale replica is recorded in the trace.
func TestStaleReplicaPricing(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1 := fragWest.Replicas()[0]
	west2 := fragWest.Replicas()[1]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 50 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	west1.SetDown(false) // back up, but stale: 1 pending intent

	ag := NewAgoric()
	ag.PriorWeight = 0
	for i := 0; i < 5; i++ {
		ranked := ag.Rank(ctx, fragWest, 2)
		if len(ranked) != 2 || ranked[0] != west2 {
			t.Fatalf("agoric ranked stale replica first: %v", siteNames(ranked))
		}
	}
	ce := NewCentralized(fed)
	ce.ProbeLatency = 0
	ranked := ce.Rank(ctx, fragWest, 2)
	if len(ranked) != 2 || ranked[0] != west2 {
		t.Fatalf("centralized ranked stale replica first: %v", siteNames(ranked))
	}

	// Force the stale replica to serve (its peer goes down) and check
	// the trace calls it out.
	west2.SetDown(true)
	_, trace, err := fed.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.StaleServed) != 1 || trace.StaleServed[0] != "parts/west@west-1" {
		t.Fatalf("StaleServed = %v", trace.StaleServed)
	}

	// After repair the penalty clears.
	west2.SetDown(false)
	if _, err := NewReconciler(fed).RunOnce(ctx); err != nil {
		t.Fatal(err)
	}
	if fragWest.PendingAt(west1) != 0 {
		t.Fatalf("pending after repair = %d", fragWest.PendingAt(west1))
	}
	_, trace, err = fed.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'west'")
	if err != nil || len(trace.StaleServed) != 0 {
		t.Fatalf("repaired replica still marked stale: %v, %v", trace.StaleServed, err)
	}
}

func siteNames(sites []*Site) []string {
	out := make([]string, len(sites))
	for i, s := range sites {
		out[i] = s.Name()
	}
	return out
}

// TestReconcilerStatus: the repair view used by the chaos harness and
// /debug/replication reflects pending intents and digests per replica.
func TestReconcilerStatus(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1 := fragWest.Replicas()[0]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 50 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	r := NewReconciler(fed)
	var sawStale bool
	for _, st := range r.Status() {
		if st.Site == west1.Name() && st.Fragment == "west" {
			sawStale = true
			if st.Pending != 1 || st.Lost || st.Healthy {
				t.Fatalf("status = %+v", st)
			}
		}
	}
	if !sawStale {
		t.Fatal("status missing the stale replica")
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		t.Fatal("unreachable")
	}
}
