package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/federation"
	"cohera/internal/storage"
)

var interactiveClassNames = [numClasses]string{"point", "search", "join", "filter"}

// Share of -seconds the open-loop phase takes; the closed-loop
// saturation phase gets the rest.
const openLoopShare = 0.5

// kept is one timed op held back for the oracle comparison, which runs
// after the phase so checking costs the measurement nothing.
type kept struct {
	sql  string
	rows []storage.Row
}

// clientLog is one load generator's private record of a phase.
type clientLog struct {
	start    time.Time            // of the phase, for windowing
	all      windowed             // every query's latency, ms; closed loop: the work too
	class    [numClasses]windowed // latency per class, ms
	late     samples              // open loop: issue time minus due time, ms
	rows     int64
	ops      int64
	failures []string
	kept     []kept
}

func newClientLog(start time.Time, width time.Duration) *clientLog {
	l := &clientLog{start: start, all: windowed{width: width}}
	for c := range l.class {
		l.class[c].width = width
	}
	return l
}

// merge adds o's latencies and work to l's; the other fields stay.
func (l *clientLog) merge(o *clientLog) {
	l.all.merge(&o.all)
	for c := range l.class {
		l.class[c].merge(&o.class[c])
	}
	l.late.merge(&o.late)
	l.rows += o.rows
	l.ops += o.ops
}

// query runs one statement and accounts it: failed when it errors
// (shed included), or comes back degraded.
func (l *clientLog) query(ctx context.Context, fed *federation.Federation, o op, from time.Time, keep bool) {
	res, tr, err := fed.QueryTraced(ctx, o.sql)
	ms := msSince(from)
	l.ops++
	switch {
	case err != nil:
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", o.sql, err))
		return
	case tr.Degraded:
		l.failures = append(l.failures, fmt.Sprintf("%s: %v", o.sql, errDegraded))
		return
	}
	l.class[o.class].add(from.Sub(l.start), ms)
	l.all.add(from.Sub(l.start), ms)
	l.rows += int64(len(res.Rows))
	if keep {
		l.kept = append(l.kept, kept{o.sql, res.Rows})
	}
}

// openLoop issues ops on a fixed schedule — op i is due at start +
// i/rate — from `clients` workers that claim the next due op, so one
// slow query delays only its own worker. Each op is timed from when it
// was due, which charges a stall to every request it held up.
func openLoop(ctx context.Context, fed *federation.Federation, ops []op, rate float64, sampleEvery int, width time.Duration) []*clientLog {
	logs := make([]*clientLog, clients)
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := range logs {
		l := newClientLog(start, width)
		logs[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if !waitUntil(ctx, due) {
					return
				}
				l.late.add(msSince(due))
				l.query(ctx, fed, ops[i], due, i%sampleEvery == 0)
			}
		}()
	}
	wg.Wait()
	return logs
}

// spinMargin is how long before an op is due its worker stops
// sleeping and starts polling the clock. A timer on the reference VM
// fires 0.6 ms late at the median (as late as a whole point query
// takes), so a worker that slept until the due time would report the
// timer, not the system. Polling yields the processor on every turn,
// so it takes no time from a query the other worker has in flight.
const spinMargin = 1500 * time.Microsecond

// waitUntil returns at t, or false when ctx ends first.
func waitUntil(ctx context.Context, t time.Time) bool {
	if wait := time.Until(t) - spinMargin; wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return false
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return ctx.Err() == nil
}

// closedLoop runs `clients` generators back to back for d: each sends
// its next query when the previous one returns — the saturation
// measurement.
func closedLoop(ctx context.Context, fed *federation.Federation, gens []*readGen, d time.Duration, sampleEvery int, width time.Duration) ([]*clientLog, time.Duration) {
	logs := make([]*clientLog, len(gens))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c, g := range gens {
		l := newClientLog(start, width)
		logs[c] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			turn := start
			for i := 0; ctx.Err() == nil && turn.Before(deadline); i++ {
				l.query(ctx, fed, g.next(), time.Now(), i%sampleEvery == 0)
				now := time.Now()
				l.all.addWork(turn.Sub(start), 1, millis(now.Sub(turn)))
				turn = now
			}
		}()
	}
	wg.Wait()
	return logs, time.Since(start)
}

// buildReadSide generates the shards, times the set-ups and builds the
// oracle (the benchmark's own reference, outside the set-up clock).
func buildReadSide(ctx context.Context, cfg config, warm func(*readBed) error) (*readBed, *oracle, float64, error) {
	shards, err := readShards(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	bed, setupS, err := timeSetups(ctx, cfg.sz.setupReps, func() (*readBed, error) {
		b, err := newReadBed(ctx, shards)
		if err != nil {
			return nil, err
		}
		if err := warm(b); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	orc, err := newOracle(shards)
	if err != nil {
		bed.close()
		return nil, nil, 0, err
	}
	return bed, orc, setupS, nil
}

func runInteractive(ctx context.Context, cfg config) (*report, error) {
	sz := cfg.sz
	bed, orc, setupS, err := buildReadSide(ctx, cfg, func(b *readBed) error {
		// Fixed-count warm-up: keep-alive connections to every peer, bid
		// latency priors (8 samples per site) and the heap reach steady
		// state before anything is timed.
		g := newReadGen(cfg.seed^0x5eed, sz.shards, sz.perShard)
		for i := 0; i < sz.warmOps; i++ {
			if _, err := b.fed.Query(ctx, g.next().sql); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer bed.close()

	r := newReport("interactive")
	r.set("setup_s", setupS, "s")

	// Phase 1, open loop at the fixed rate.
	openD := cfg.seconds * openLoopShare
	g := newReadGen(cfg.seed, sz.shards, sz.perShard)
	ops := make([]op, int(sz.rate*openD))
	for i := range ops {
		ops[i] = g.next()
	}
	width := cfg.window()
	openStart := time.Now()
	open := openLoop(ctx, bed.fed, ops, sz.rate, sz.sampleEvery, width)
	openWall := time.Since(openStart).Seconds()

	// Phase 2, closed loop: saturation.
	gens := make([]*readGen, clients)
	for c := range gens {
		gens[c] = newReadGen(cfg.seed+int64(1000*(c+1)), sz.shards, sz.perShard)
	}
	closed, closedWall := closedLoop(ctx, bed.fed, gens, time.Duration((cfg.seconds-openD)*float64(time.Second)), sz.sampleEvery, width)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	fixed := newClientLog(time.Time{}, width) // both workers' logs in one
	for _, l := range open {
		fixed.merge(l)
	}
	fixedAll := fixed.all.whole()
	r.set("op_p50_ms", fixed.all.quiet(0.5), "ms")
	r.note("op = any query at the fixed rate of %.0f/s with %d workers, timed from its due time (query_p50_ms); n=%d", sz.rate, clients, fixedAll.n())
	r.info("whole_run.op_p50_ms", fixedAll.p(0.5), "ms")
	r.info("fixed_rate.p99_ms", fixedAll.p(0.99), "ms")
	for c, name := range interactiveClassNames {
		r.info("fixed_rate."+name+"_p50_ms", fixed.class[c].whole().p(0.5), "ms")
	}
	r.info("loadgen.late_p50_ms", fixed.late.p(0.5), "ms")
	r.info("loadgen.late_p99_ms", fixed.late.p(0.99), "ms")
	r.info("loadgen.achieved_rate_frac", float64(fixed.ops)/openWall/sz.rate, "ratio")

	sat := newClientLog(time.Time{}, width)
	for _, l := range closed {
		sat.merge(l)
	}
	r.set("throughput_per_s", sat.all.quietRate(clients), "1/s")
	r.note("throughput_per_s = queries/s with %d closed-loop clients over %.1fs (saturated_qps), n=%d", clients, closedWall.Seconds(), sat.ops)
	r.info("whole_run.throughput_per_s", float64(sat.ops)/closedWall.Seconds(), "1/s")
	r.set("op_tail_ms", sat.all.quiet(0.99), "ms")
	r.note("op_tail_ms = p99 over every query of the closed-loop phase")
	r.info("whole_run.op_tail_ms", sat.all.whole().p(0.99), "ms")
	for c, name := range interactiveClassNames {
		r.set(fmt.Sprintf("class%d_p50_ms", c+1), sat.class[c].quiet(0.5), "ms")
		r.note("class%d = %s query in the closed-loop phase, n=%d", c+1, name, sat.class[c].whole().n())
	}
	r.noteWindows(width)
	r.info("saturated.rows_per_s", float64(sat.rows)/closedWall.Seconds(), "1/s")

	// Output checks, after every timestamp is taken.
	for _, l := range append(open, closed...) {
		r.attempted += l.ops
		for _, f := range l.failures {
			r.failOp("%s", f)
		}
		for _, k := range l.kept {
			if err := orc.check(k.sql, k.rows); err != nil {
				r.failOp("%v", err)
			}
		}
	}
	return r, nil
}
