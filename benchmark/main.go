// Command benchmark is the repository's standing benchmark: four
// workloads through a coordinator federation over loopback coherad
// peers and WAL-backed sites, and a traced run that prices each layer
// from outside through its public entry points. See README.md.
//
// Everything runs in this one process: no child processes, every
// listener, admission controller, WAL and temp dir it opens is closed
// on every exit path, and a watchdog deadline ends the run by itself.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	quick    bool
	workDir  string // parent of every temp dir the run creates
	sz       sizes
}

// window is the width of the windows a run's measurements are taken
// over (see windowed in stats.go).
func (c config) window() time.Duration {
	return time.Duration(c.seconds / windowsPerRun * float64(time.Second))
}

// sizes are the bed and schedule constants. They are part of the
// benchmark's definition: the same on every commit, never calibrated
// at run time.
type sizes struct {
	shards      int     // catalog peers on the read bed
	perShard    int     // rows per catalog peer
	writeRows   int     // base rows per write-bed fragment
	loadRows    int     // rows LoadFragment moves per load_recover cycle
	setupReps   int     // set-ups per run; setup_s is their median
	warmOps     int     // fixed-count warm-up inside each set-up
	rate        float64 // interactive open-loop arrival rate, queries/s
	sampleEvery int     // 1-in-N timed ops are compared with the oracle
}

// fullSizes: rate is under a fifth of the seed commit's measured
// closed-loop saturation on the 2-core reference machine (≈ 560/s).
// The median of the 70/30 light/heavy mix stops repeating between 200/s
// and 250/s, and the host's speed varies by a third, so the rate keeps a
// factor of two below that (see "The fixed rate" in README.md).
var fullSizes = sizes{shards: 4, perShard: 5000, writeRows: 10000, loadRows: 10000, setupReps: 5, warmOps: 100, rate: 100, sampleEvery: 16}

// quickSizes shrink every bed so the self-test finishes in seconds and
// can afford to check every operation.
var quickSizes = sizes{shards: 4, perShard: 400, writeRows: 400, loadRows: 800, setupReps: 2, warmOps: 20, rate: 100, sampleEvery: 1}

const clients = 2 // load generators; the reference machine has 2 cores

// gcPercent is the GC target the whole process runs under. The
// benchmark shares one heap with the system it measures — coordinator,
// five peers, the oracle's copy of every row, kept results — so at the
// default of 100 the collector's cycles are driven by the harness's
// own live data as much as by the system's garbage, and where those
// cycles fall is the largest source of run-to-run spread. A higher,
// fixed target keeps that out of the numbers; it is the same on every
// commit and stated in README.md.
const gcPercent = 400

// defaultDeadline bounds a whole run, set-up and checks included. The
// driver allows 180 s; the run cancels itself well before that.
const defaultDeadline = 150 * time.Second

var workloads = map[string]func(context.Context, config) (*report, error){
	"interactive":      runInteractive,
	"bulk_scan":        runBulkScan,
	"dml_beside_reads": runDMLBesideReads,
	"load_recover":     runLoadRecover,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is main without the process exit: it returns once every
// goroutine, listener, log and temp dir the run created is gone.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "interactive | bulk_scan | dml_beside_reads | load_recover")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for all generated data and the operation schedule")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	aa := fs.Bool("aa", false, "run the workload twice on this build and print both values per metric")
	fs.BoolVar(&cfg.quick, "quick", false, "tiny beds, every op checked (self-test)")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build", "directory for temp dirs and the span file spans-<workload>.json; created if missing")
	deadline := fs.Duration("deadline", defaultDeadline, "watchdog: the run cancels itself, unwinds and exits 3 after this long")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[cfg.workload]; !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown -workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg.sz = fullSizes
	if cfg.quick {
		cfg.sz = quickSizes
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}

	debug.SetGCPercent(gcPercent)
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(ctx, *deadline)
	defer cancel()

	var r *report
	var err error
	switch {
	case *aa:
		err = runAA(ctx, cfg, stdout)
	case *trace == 1:
		r, err = runTraced(ctx, cfg)
	default:
		r, err = workloads[cfg.workload](ctx, cfg)
	}
	if err == nil && r != nil {
		err = r.print(stdout)
	}
	if err == nil {
		return 0
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
	if ctx.Err() != nil {
		if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "benchmark: watchdog deadline of %v reached\n", *deadline)
		}
		return 3
	}
	return 1
}

// timeSetups builds a bed reps times and reports the median build
// time in seconds; every bed but the last is closed again. A set-up
// is everything a run does with already generated rows before it can
// measure: load, index, listen, dial, define tables, and the
// fixed-count warm-up.
func timeSetups[B interface{ close() }](ctx context.Context, reps int, build func() (B, error)) (B, float64, error) {
	var bed B
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			bed.close()
		}
		if err := ctx.Err(); err != nil {
			var zero B
			return zero, 0, err
		}
		start := time.Now()
		b, err := build()
		if err != nil {
			var zero B
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		bed = b
	}
	return bed, median(secs), nil
}
