package federation

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"cohera/internal/journal"
	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/storage"
)

// Anti-entropy replica repair. Federated DML is best-effort across
// replicas: statements that cannot reach a copy journal a write intent
// instead (see dml.go). The Reconciler is the background half of that
// contract — it drains journaled intents into recovered replicas,
// detects divergence by comparing content digests, and falls back to
// copying rows from a healthy peer when the journal cannot be trusted
// (torn tail) or was lost entirely. This closes the loop the paper's
// availability stance opens: copies may miss writes while a site is
// down, but they provably converge once it returns.

// stalePenalty is the per-pending-intent price multiplier both
// optimizers apply to a stale replica: price × (1 + stalePenalty × n).
// High enough that one pending write loses against any healthy peer
// under normal load spreads, low enough that a stale replica still
// serves when it is the only copy left.
const stalePenalty = 4.0

var (
	metStaleReads = obs.Default().Counter("cohera_antientropy_stale_reads_total",
		"Fragment reads served by a replica with journaled intents pending.", nil)
	metCopyRepairs = obs.Default().Counter("cohera_antientropy_copy_repairs_total",
		"Replicas repaired by copying rows from a healthy peer.", nil)
	metDivergence = obs.Default().Counter("cohera_antientropy_divergence_total",
		"Replica divergences detected by digest comparison.", nil)
	metConvergence = obs.Default().Histogram("cohera_antientropy_convergence_seconds",
		"Time from detecting a replica divergence to its convergence.", nil)
	metLastSuccess = obs.Default().Gauge("cohera_reconciler_last_success_unix",
		"Unix time of the last reconciliation pass that completed without error.", nil)
)

// metRepairSeconds is the per-kind repair latency histogram: "replay"
// times one journaled intent's application, "copy" one full
// copy-repair of a divergent replica.
func metRepairSeconds(kind string) *obs.Histogram {
	return obs.Default().Histogram("cohera_antientropy_repair_seconds",
		"Anti-entropy repair latency, by kind (replay = one journaled intent, copy = one replica rebuild).",
		obs.Labels{"kind": kind})
}

// RepairReport summarizes one reconciliation pass.
type RepairReport struct {
	// Replayed counts journaled intents applied to recovered replicas.
	Replayed int
	// CopyRepaired counts replicas rebuilt from a healthy peer.
	CopyRepaired int
	// Divergent counts replicas whose digest disagreed with their
	// fragment's repair source during this pass (before repair).
	Divergent int
	// Pending is the journal backlog remaining after the pass.
	Pending int
	// Skipped counts repair opportunities deferred because a replica
	// was unavailable or not yet healthy — the breaker gating that
	// keeps repair traffic off half-open sites.
	Skipped int
}

// ReplicaState is one replica's repair view, for tests and debugging.
type ReplicaState struct {
	Table    string
	Fragment string
	Site     string
	Pending  int
	Lost     bool
	Healthy  bool
	Digest   storage.TableDigest
}

// Reconciler runs anti-entropy passes over a federation. Create with
// NewReconciler; run synchronously with RunOnce (tests, chaos
// harnesses) or in the background with Start/Stop.
type Reconciler struct {
	// Interval is the background loop period; 0 means 50ms.
	Interval time.Duration
	// Clock supplies timestamps for convergence latency; nil means
	// time.Now. Injectable for deterministic tests.
	Clock func() time.Time

	f *Federation

	mu sync.Mutex
	// staleSince records when a replica ("table/frag@site") was first
	// seen divergent, feeding the convergence latency histogram.
	staleSince map[string]time.Time

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewReconciler builds a reconciler for f.
func NewReconciler(f *Federation) *Reconciler {
	return &Reconciler{
		f:          f,
		staleSince: make(map[string]time.Time),
		stopCh:     make(chan struct{}),
	}
}

func (r *Reconciler) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// Start launches the background repair loop. It stops when ctx is
// cancelled or Stop is called.
func (r *Reconciler) Start(ctx context.Context) {
	iv := r.Interval
	if iv <= 0 {
		iv = 50 * time.Millisecond
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		tick := time.NewTicker(iv)
		defer tick.Stop()
		for {
			select {
			case <-r.stopCh:
				return
			case <-ctx.Done():
				return
			case <-tick.C:
				//lint:ignore errdrop background repair failures are retried next tick; progress and backlog are surfaced via the antientropy metrics
				_, _ = r.RunOnce(ctx)
			}
		}
	}()
}

// Stop halts the background loop and waits for it to exit. Safe to
// call more than once, and a no-op if Start was never called.
func (r *Reconciler) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

// RunOnce performs one full reconciliation pass: for every global
// table, drain journaled intents into available replicas, then compare
// replica digests per fragment and copy-repair divergent copies whose
// journal has nothing (trustworthy) left to say.
func (r *Reconciler) RunOnce(ctx context.Context) (RepairReport, error) {
	// Repair passes register in the in-flight registry like queries do:
	// /debug/queries shows a long-running pass, and an operator cancel
	// stops it between repairs with a typed cause.
	ctx, aq := obs.ActiveQueries().Register(ctx, "repair", "anti-entropy pass")
	defer aq.Finish()
	var rep RepairReport
	for _, gt := range r.f.GlobalTables() {
		if err := ctx.Err(); err != nil {
			rep.Pending = r.f.Journal().PendingTotal()
			return rep, context.Cause(ctx)
		}
		frags := r.f.FragmentsOf(gt)
		r.drainTable(ctx, gt, frags, &rep)
		wholeTable := allDedicated(frags, gt)
		for _, frag := range frags {
			r.repairFragment(ctx, gt, frags, frag, wholeTable, &rep)
		}
	}
	rep.Pending = r.f.Journal().PendingTotal()
	metLastSuccess.Set(r.now().Unix())
	return rep, nil
}

// drainTable replays pending intents for every replica site of a
// table. The site-level gate is Available (alive and breaker not
// open); each individual intent then passes CheckAvailable, which
// consumes the breaker's half-open probe quota — so replay into a
// recovering site is bounded probe traffic, never a hammer.
func (r *Reconciler) drainTable(ctx context.Context, gt *GlobalTable, frags []*Fragment, rep *RepairReport) {
	for _, site := range replicaSites(frags) {
		grp := r.f.Journal().PeekGroup(site.Name(), gt.Def.Name)
		if grp == nil || grp.Pending() == 0 {
			continue
		}
		if grp.Lost() {
			continue // copy-repair path; replaying a torn log could double-apply
		}
		if !site.Available() {
			rep.Skipped++
			continue
		}
		n, err := grp.Drain(ctx, func(it journal.Intent) error {
			return r.applyIntent(ctx, site, gt, it)
		})
		rep.Replayed += n
		if err != nil {
			// Mid-drain failure (probe quota exhausted, site dropped
			// again): the rest of the backlog stays pending for the
			// next pass.
			rep.Skipped++
		}
	}
}

// applyIntent applies one journaled intent to a replica.
func (r *Reconciler) applyIntent(ctx context.Context, site *Site, gt *GlobalTable, it journal.Intent) error {
	if err := site.CheckAvailable(ctx); err != nil {
		return err
	}
	defer func(start time.Time) { metRepairSeconds("replay").Observe(time.Since(start)) }(time.Now())
	switch it.Op {
	case journal.OpUpsert:
		// The WAL-aware path: a replayed intent is durable at the
		// replica before the journal marks it applied.
		if err := site.DB().UpsertRow(gt.Def.Clone(gt.Def.Name), storage.Row(it.Row)); err != nil {
			return err
		}
	case journal.OpSQL:
		if _, err := site.DB().Exec(it.SQL); err != nil {
			if errors.Is(err, schema.ErrNoTable) {
				return nil // replica never materialized the table: live no-op
			}
			return err
		}
	default:
		return fmt.Errorf("federation: unknown intent op %q", it.Op)
	}
	site.Breaker().RecordSuccess()
	return nil
}

// repairFragment compares one fragment's replica digests and
// copy-repairs divergent replicas from a healthy, journal-clean peer.
func (r *Reconciler) repairFragment(ctx context.Context, gt *GlobalTable, frags []*Fragment, frag *Fragment, wholeTable bool, rep *RepairReport) {
	replicas := frag.Replicas()
	if len(replicas) < 2 {
		return // nothing to compare against
	}
	// The repair source must be fully healthy (closed breaker — repair
	// reads never lean on a recovering site) with a clean, fully
	// drained journal: its content then reflects every accepted write.
	type candidate struct {
		site   *Site
		digest storage.TableDigest
		grp    *journal.Group
	}
	var source *candidate
	var others []*candidate
	for _, site := range replicas {
		if site.HealthScore() < 1 {
			rep.Skipped++
			continue
		}
		c := &candidate{site: site, grp: r.f.Journal().PeekGroup(site.Name(), gt.Def.Name)}
		c.digest = r.fragmentDigest(site, gt, frags, frag, wholeTable)
		clean := c.grp == nil || (c.grp.Pending() == 0 && !c.grp.Lost())
		if source == nil && clean {
			source = c
		} else {
			others = append(others, c)
		}
	}
	if source == nil {
		rep.Skipped++ // no trustworthy copy to compare against yet
		return
	}
	for _, c := range others {
		key := gt.Def.Name + "/" + frag.ID + "@" + c.site.Name()
		if c.digest.Equal(source.digest) && (c.grp == nil || (c.grp.Pending() == 0 && !c.grp.Lost())) {
			r.noteConverged(key)
			continue
		}
		if c.grp != nil && c.grp.Pending() > 0 && !c.grp.Lost() {
			// Lagging but journaled: the drain will close the gap; a
			// copy here would race the backlog.
			continue
		}
		rep.Divergent++
		r.noteDivergent(key)
		if err := ctx.Err(); err != nil {
			return
		}
		if err := r.copyRepair(gt, frags, frag, wholeTable, source.site, c.site); err != nil {
			rep.Skipped++
			continue
		}
		rep.CopyRepaired++
		metCopyRepairs.Inc()
		r.noteConverged(key)
	}
}

// copyRepair rebuilds the target replica's fragment content from the
// source replica, under the target group's exclusive lock so no
// foreground write interleaves with the copy. On success the target's
// journal group is reset: the copied content already reflects every
// write the journal could have replayed.
func (r *Reconciler) copyRepair(gt *GlobalTable, frags []*Fragment, frag *Fragment, wholeTable bool, src, dst *Site) error {
	defer func(start time.Time) { metRepairSeconds("copy").Observe(time.Since(start)) }(time.Now())
	grp := r.f.Journal().Group(dst.Name(), gt.Def.Name)
	return grp.Exclusive(func(pending int, lost bool) error {
		if pending > 0 && !lost {
			// A write slipped in between our check and the lock; let
			// the drain handle it and repair next pass.
			return fmt.Errorf("federation: copy-repair raced a journaled write at %s", dst.Name())
		}
		// A statement applied at the source and not yet here is not a
		// divergence: a copy now would apply it here a second time when
		// it arrives. Repair only with no statement under way, and drop
		// the copy if one began while the source was read.
		begun := gt.writes.started.Load()
		if gt.writes.active.Load() > 0 {
			return fmt.Errorf("federation: copy-repair raced a write in flight at %s", dst.Name())
		}
		rows, err := r.fragmentRows(src, gt, frags, frag, wholeTable)
		if err != nil {
			return err
		}
		if gt.writes.started.Load() != begun {
			return fmt.Errorf("federation: copy-repair raced a write in flight at %s", dst.Name())
		}
		// Remove the target's in-scope rows, then install the source's.
		// Fragment scope means only the rows memberOf assigns here are
		// doomed; whole-table scope truncates. Either way the swap runs
		// through RestoreRows so it lands in the target's WAL as one
		// commit-latch batch — a crash mid-repair replays to a state the
		// next pass repairs again, never a half-written one it trusts.
		var doomed []int64
		if !wholeTable {
			dstTbl, err := dst.DB().Table(gt.Def.Name)
			if err == nil {
				in, err := memberOf(frags, gt.Def, frag)
				if err != nil {
					return err
				}
				var scanErr error
				dstTbl.Scan(func(id int64, row storage.Row) bool {
					mine, rerr := in(row)
					if rerr != nil {
						scanErr = rerr
						return false
					}
					if mine {
						doomed = append(doomed, id)
					}
					return true
				})
				if scanErr != nil {
					return scanErr
				}
			} else if !errors.Is(err, schema.ErrNoTable) {
				return err
			}
		}
		return dst.DB().RestoreRows(gt.Def.Clone(gt.Def.Name), wholeTable, doomed, rows)
	})
}

// fragmentDigest computes a replica's content digest at fragment
// scope. With wholeTable scope (every replica of every fragment is
// dedicated) the maintained O(1) table digest is used; otherwise the
// fragment's membership is decided by memberOf — the same rule INSERT
// uses to place rows — so digest scope and copy scope always agree. A
// replica without the table digests as empty.
func (r *Reconciler) fragmentDigest(site *Site, gt *GlobalTable, frags []*Fragment, frag *Fragment, wholeTable bool) storage.TableDigest {
	tbl, err := site.DB().Table(gt.Def.Name)
	if err != nil {
		return storage.TableDigest{}
	}
	if wholeTable {
		return tbl.Digest()
	}
	in, err := memberOf(frags, gt.Def, frag)
	if err != nil {
		return storage.TableDigest{}
	}
	return tbl.DigestFunc(func(row storage.Row) bool {
		mine, rerr := in(row)
		return rerr == nil && mine
	})
}

// memberOf reports whether a row of the table is frag's under the rule
// INSERT places rows by (fragmentRouter). A row no fragment claims is
// none's.
func memberOf(frags []*Fragment, def *schema.Table, frag *Fragment) (func(storage.Row) (bool, error), error) {
	route, err := fragmentRouter(frags, def)
	if err != nil {
		return nil, err
	}
	return func(row storage.Row) (bool, error) {
		routed, err := route(row)
		if errors.Is(err, ErrRowOutsideFragment) {
			return false, nil
		}
		return routed == frag, err
	}, nil
}

// fragmentRows snapshots the source replica's rows for a fragment.
func (r *Reconciler) fragmentRows(site *Site, gt *GlobalTable, frags []*Fragment, frag *Fragment, wholeTable bool) ([]storage.Row, error) {
	tbl, err := site.DB().Table(gt.Def.Name)
	if err != nil {
		if errors.Is(err, schema.ErrNoTable) {
			return nil, nil // source holds nothing: the copy empties the target
		}
		return nil, err
	}
	in := func(storage.Row) (bool, error) { return true, nil }
	if !wholeTable {
		if in, err = memberOf(frags, gt.Def, frag); err != nil {
			return nil, err
		}
	}
	var out []storage.Row
	var scanErr error
	tbl.Scan(func(_ int64, row storage.Row) bool {
		mine, rerr := in(row)
		if rerr != nil {
			scanErr = rerr
			return false
		}
		if !mine {
			return true
		}
		out = append(out, row)
		return true
	})
	return out, scanErr
}

// noteDivergent records the first sighting of a divergent replica.
func (r *Reconciler) noteDivergent(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, seen := r.staleSince[key]; !seen {
		r.staleSince[key] = r.now()
		metDivergence.Inc()
	}
}

// noteConverged closes a divergence episode, feeding its duration into
// the convergence latency histogram.
func (r *Reconciler) noteConverged(key string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if since, seen := r.staleSince[key]; seen {
		metConvergence.Observe(r.now().Sub(since))
		delete(r.staleSince, key)
	}
}

// Status reports every replica's repair state, for tests and the
// chaos harness.
func (r *Reconciler) Status() []ReplicaState {
	var out []ReplicaState
	for _, gt := range r.f.GlobalTables() {
		frags := r.f.FragmentsOf(gt)
		wholeTable := allDedicated(frags, gt)
		for _, frag := range frags {
			for _, site := range frag.Replicas() {
				st := ReplicaState{
					Table: gt.Def.Name, Fragment: frag.ID, Site: site.Name(),
					Healthy: site.HealthScore() == 1,
					Digest:  r.fragmentDigest(site, gt, frags, frag, wholeTable),
				}
				if grp := r.f.Journal().PeekGroup(site.Name(), gt.Def.Name); grp != nil {
					st.Pending = grp.Pending()
					st.Lost = grp.Lost()
				}
				out = append(out, st)
			}
		}
	}
	return out
}

// allDedicated reports whether every replica site of every fragment
// hosts exactly one fragment of the table — the layout where a site's
// local table IS the fragment and the O(1) whole-table digest applies.
// Any co-hosting site forces memberOf-scoped digests for the whole
// table so replicas with different layouts remain comparable.
func allDedicated(frags []*Fragment, gt *GlobalTable) bool {
	hostCount := make(map[*Site]int)
	for _, frag := range frags {
		for _, site := range frag.Replicas() {
			hostCount[site]++
		}
	}
	for _, n := range hostCount {
		if n > 1 {
			return false
		}
	}
	return true
}

// replicaSites returns the distinct sites hosting any of the
// fragments, in stable name order.
func replicaSites(frags []*Fragment) []*Site {
	seen := make(map[*Site]bool)
	var out []*Site
	for _, frag := range frags {
		for _, site := range frag.Replicas() {
			if !seen[site] {
				seen[site] = true
				out = append(out, site)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
