package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cohera/internal/admission"
	"cohera/internal/storage"
	"cohera/internal/wal"
)

// Shares of -seconds the traced run gives its parts. The 18 timed
// probes take probeShare each, the four compound probes a small
// multiple of it; what is left after the class replays and the short
// open loop is slack for building the beds.
const (
	probeShare  = 0.02
	replayShare = 0.30
	loadShare   = 0.10
)

// runTraced is the -trace 1 run: every per-layer metric, measured from
// outside through the layers' public entry points and the public
// metrics registry, on the beds the four workloads use. It is the same
// probe whichever workload it is asked about — a layer's price does not
// depend on who asks — so every per-layer metric is really measured in
// every traced run; -workload only names the span file.
func runTraced(ctx context.Context, cfg config) (*report, error) {
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r := newReport(cfg.workload)
	sz := cfg.sz

	shards, err := readShards(cfg)
	if err != nil {
		return nil, err
	}
	read, err := newReadBed(ctx, shards)
	if err != nil {
		return nil, err
	}
	defer read.close()
	twin, err := newTwin(shards)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(cfg.workDir, "trace-")
	if err != nil {
		return nil, err
	}
	defer func() {
		rmErr := os.RemoveAll(dir)
		_ = rmErr // teardown; nothing to report to
	}()
	base, err := catalogShards(writeBasePrefix, sz.writeRows, cfg.seed)
	if err != nil {
		return nil, err
	}
	var beds []*writeBed
	defer func() {
		for _, b := range beds {
			b.close()
		}
	}()
	for _, spec := range []struct {
		tag      string
		wal      bool
		replicas int
	}{{"w", true, replicasPerFragment}, {"b", false, replicasPerFragment}, {"s", true, 1}} {
		walDir := ""
		if spec.wal {
			walDir = filepath.Join(dir, spec.tag)
		}
		b, err := newWriteBed(spec.tag, walDir, spec.replicas)
		if err != nil {
			return nil, err
		}
		beds = append(beds, b)
		if err := b.load([][]storage.Row{cloneRows(base[0]), cloneRows(base[1])}); err != nil {
			return nil, err
		}
	}

	p := &layerProbes{cfg: cfg, r: r, read: read, twin: twin, write: beds[0], bare: beds[1], solo: beds[2],
		share: time.Duration(cfg.seconds * probeShare * float64(time.Second))}
	for _, probe := range []func(context.Context) error{
		p.planning, p.dataPlane, p.storageAndText, p.wireTax, p.traceCounters, p.durability, p.recovery,
	} {
		if err := probe(ctx); err != nil {
			return nil, err
		}
	}

	rec := newRecorder()
	if err := replayClasses(ctx, cfg, p, rec); err != nil {
		return nil, err
	}

	// A short stretch of the interactive open loop, for what the load
	// generator and the allocator report.
	var a0, a1 runtime.MemStats
	g := newReadGen(cfg.seed, sz.shards, sz.perShard)
	ops := make([]op, int(sz.rate*cfg.seconds*loadShare)+1)
	for i := range ops {
		ops[i] = g.next()
	}
	runtime.ReadMemStats(&a0)
	start := time.Now()
	logs := openLoop(ctx, read.fed, ops, sz.rate, len(ops)+1, cfg.window())
	wall := time.Since(start).Seconds()
	runtime.ReadMemStats(&a1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var late samples
	var done int64
	for _, l := range logs {
		late.merge(&l.late)
		done += l.ops
		for _, f := range l.failures {
			r.failOp("%s", f)
		}
	}
	r.attempted += done
	r.set("loadgen.late_p99_ms", late.p(0.99), "ms")
	r.set("loadgen.achieved_rate_frac", float64(done)/wall/sz.rate, "ratio")
	r.set("process.alloc_bytes_per_op", float64(a1.TotalAlloc-a0.TotalAlloc)/float64(done), "B")
	r.set("process.allocs_per_op", float64(a1.Mallocs-a0.Mallocs)/float64(done), "count")
	p.noteHeap()
	r.set("process.gc_pause_total_ms", float64(a1.PauseTotalNs-m0.PauseTotalNs)/1e6, "ms")
	r.set("process.peak_heap_mb", float64(p.peak)/(1<<20), "MB")

	spans := filepath.Join(cfg.workDir, "spans-"+cfg.workload+".json")
	n, err := rec.write(spans)
	if err != nil {
		return nil, fmt.Errorf("writing span file: %w", err)
	}
	r.note("%d spans written to %s", n, spans)
	return r, nil
}

// replayClasses runs the class replays of budget.go and reports each
// class's unattributed share and the cost of recording spans at all.
func replayClasses(ctx context.Context, cfg config, p *layerProbes, rec *recorder) error {
	dir, err := os.MkdirTemp(cfg.workDir, "walreplay-")
	if err != nil {
		return err
	}
	defer func() {
		rmErr := os.RemoveAll(dir)
		_ = rmErr // teardown; nothing to report to
	}()
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncBatch, Name: "probe-replay"})
	if err != nil {
		return err
	}
	gate := admission.New(admission.Config{MaxInFlight: 64})
	b := &budgeter{read: p.read, write: p.write, bare: p.bare, gate: gate, log: l}
	err = b.replayAll(ctx, cfg, p.r, rec)
	gate.Close()
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	return err
}

// replayAll gives every class the same slice of the replay time.
func (b *budgeter) replayAll(ctx context.Context, cfg config, r *report, rec *recorder) error {
	// Each read class and the DML group get the same slice.
	slice := time.Duration(cfg.seconds * replayShare / float64(len(readClasses)+1) * float64(time.Second))
	op := 0
	var overhead []float64
	for _, class := range readClasses {
		sqls := classOps(class, 64, cfg)
		var fracs, plain, traced []float64
		deadline := time.Now().Add(slice)
		for i := 0; i < 3 || time.Now().Before(deadline); i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			sql := sqls[i%len(sqls)]
			op++
			// The same op untraced, traced whole, then traced by layer.
			dPlain, _, err := b.wholeRead(ctx, nil, class, op, sql)
			if err != nil {
				return fmt.Errorf("%s: %w", sql, err)
			}
			dWhole, nWhole, err := b.wholeRead(ctx, rec, class, op, sql)
			if err != nil {
				return fmt.Errorf("%s: %w", sql, err)
			}
			covered, nLayers, err := b.layeredRead(ctx, rec, class, op, sql)
			if err != nil {
				return fmt.Errorf("%s by layer: %w", sql, err)
			}
			r.attempted++
			if nWhole != nLayers {
				r.failOp("%s: %d rows whole, %d rows layer by layer", sql, nWhole, nLayers)
			}
			fracs = append(fracs, 1-covered.Seconds()/dWhole.Seconds())
			plain = append(plain, dPlain.Seconds())
			traced = append(traced, dWhole.Seconds())
		}
		r.set("budget."+class+".unattributed_frac", median(fracs), "ratio")
		r.info("budget."+class+".samples", float64(len(fracs)), "count")
		overhead = append(overhead, median(traced)/median(plain)-1)
	}

	fracs := map[string][]float64{}
	deadline := time.Now().Add(slice)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		op++
		whole, covered, err := b.dmlSample(ctx, rec, op)
		if err != nil {
			return err
		}
		r.attempted += 3
		for class, w := range whole {
			fracs[class] = append(fracs[class], 1-covered[class].Seconds()/w.Seconds())
		}
	}
	for _, class := range dmlClasses {
		r.set("budget."+class+".unattributed_frac", median(fracs[class]), "ratio")
		r.info("budget."+class+".samples", float64(len(fracs[class])), "count")
	}
	// The mean over the read classes of traced-over-untraced whole-op
	// time, minus one.
	var sum float64
	for _, o := range overhead {
		sum += o
	}
	r.set("trace.overhead_frac", sum/float64(len(overhead)), "ratio")
	return nil
}
