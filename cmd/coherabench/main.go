// Command coherabench runs the experiment suite (E1–E10 and E2b in
// DESIGN.md) and prints each result table. By default it runs the full
// sweeps used to produce EXPERIMENTS.md; -quick shrinks them for a fast
// smoke run.
//
//	coherabench                  # all experiments, full sweeps
//	coherabench -quick           # all experiments, small sweeps
//	coherabench -e E3,E5         # a subset
//	coherabench -seed 7          # different deterministic seed
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cohera/internal/bench"
)

func main() {
	var (
		quick = flag.Bool("quick", false, "run reduced sweeps")
		only  = flag.String("e", "", "comma-separated experiment ids (default: all)")
		seed  = flag.Int64("seed", 1, "deterministic seed")
	)
	flag.Parse()

	cfg := bench.Full()
	if *quick {
		cfg = bench.Quick()
	}
	cfg.Seed = *seed

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	ran := 0
	for _, e := range bench.All() {
		if len(want) > 0 && !want[strings.ToUpper(e.ID)] {
			continue
		}
		start := time.Now()
		t, err := e.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		t.Print(os.Stdout)
		fmt.Printf("  (%s in %s)\n", e.Desc, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched %q\n", *only)
		os.Exit(1)
	}
}
