package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchmarkFile mirrors the parts of BENCHMARK.json the benchmark
// reads back: the declared metrics and their bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkFile finds BENCHMARK.json in the current directory (the
// driver runs from the checkout's root) or its parent (go test runs in
// benchmark/).
func loadBenchmarkFile() (*benchmarkFile, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		raw, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &bf, nil
	}
	return nil, firstErr
}

// runAA is the A/A mode: the workload twice on this build, and per
// end-to-end metric both values, how far apart they are as a share of
// the first, and the bound BENCHMARK.json allows. The verdict is
// two-sided: a second run much better than the first repeats no more
// than one much worse, and a metric that does not repeat within its
// bound here cannot tell a regression from noise. The sign printed says
// which way the second run went (+ = worse).
func runAA(ctx context.Context, cfg config, w io.Writer) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var runs [2]*report
	for i := range runs {
		if runs[i], err = workloads[cfg.workload](ctx, cfg); err != nil {
			return err
		}
		if !runs[i].correct() {
			return fmt.Errorf("run %d failed its output checks: %v", i+1, runs[i].problems)
		}
	}
	fmt.Fprintf(w, "A/A %s, seed %d, %.0fs per run\n", cfg.workload, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "%-28s %14s %14s %9s %7s\n", "metric", "first", "second", "differs", "bound")
	outside := 0
	for _, d := range bf.EndToEnd {
		a, b := runs[0].gated[d.Name].Value, runs[1].gated[d.Name].Value
		worse := relDiff(a, b)
		if d.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if !(math.Abs(worse) <= d.Bound) { // also catches NaN
			verdict = "OUTSIDE"
			outside++
		}
		fmt.Fprintf(w, "%-28s %14.6f %14.6f %+8.1f%% %6.0f%% %s %s\n", d.Name, a, b, 100*worse, 100*d.Bound, d.Unit, verdict)
	}
	// Diagnostics are not gated; they are printed so a tail that will
	// not hold still is seen rather than hidden.
	names := make([]string, 0, len(runs[0].diag))
	for n := range runs[0].diag {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a, b := runs[0].diag[n].Value, runs[1].diag[n].Value
		fmt.Fprintf(w, "%-28s %14.6f %14.6f %+8.1f%%  (diagnostic)\n", n, a, b, 100*relDiff(a, b))
	}
	if outside > 0 {
		return fmt.Errorf("%d end-to-end metrics did not repeat within their bound", outside)
	}
	return nil
}

// relDiff is (b-a)/|a|. A first value of 0 has no relative difference
// from anything but another 0; that case reports 0 or NaN (never
// inside a bound) instead of dividing by it.
func relDiff(a, b float64) float64 {
	switch {
	case a != 0:
		return (b - a) / math.Abs(a)
	case b == 0:
		return 0
	default:
		return math.NaN()
	}
}
