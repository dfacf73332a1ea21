// Package bench implements the experiment harness: one function per
// experiment in DESIGN.md's index (E1–E18), each returning a printable
// table. The paper (an industrial overview) publishes no numbered tables
// or figures, so each experiment operationalizes one of its testable
// claims; EXPERIMENTS.md records claim vs. measurement.
//
// All experiments are deterministic given their Config seed. Scale knobs
// let the same code run as quick testing.B benchmarks and as the full
// sweeps in cmd/coherabench.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result in printable form.
type Table struct {
	// ID is the experiment identifier ("E1").
	ID string
	// Title restates the claim under test.
	Title string
	// Headers label the columns.
	Headers []string
	// Rows are the measured series.
	Rows [][]string
	// Notes records caveats and the expected shape.
	Notes string
}

// Print renders the table with aligned columns.
func (t Table) Print(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Notes)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Config scales every experiment. Quick() keeps unit benchmarks fast;
// Full() reproduces the sweep ranges documented in EXPERIMENTS.md.
type Config struct {
	// Seed drives every generator.
	Seed int64
	// Quick shrinks sweeps for use inside testing.B.
	Quick bool
}

// Quick returns the fast configuration.
func Quick() Config { return Config{Seed: 1, Quick: true} }

// Full returns the full sweep configuration.
func Full() Config { return Config{Seed: 1} }

// Experiment couples an id to its runner.
type Experiment struct {
	ID   string
	Run  func(cfg Config) (Table, error)
	Desc string
}

// All returns every experiment in id order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1Staleness, "warehouse refresh vs federated fetch-on-demand staleness"},
		{"E2", E2Hybrid, "on-demand vs materialized vs hybrid latency and staleness"},
		{"E2b", E2bSemanticCache, "semantic cache hit rate and latency on Zipf workloads"},
		{"E3", E3OptimizerScale, "optimization time vs federation size, agoric vs centralized"},
		{"E4", E4LoadBalance, "load balance under skew and mid-run scale-out"},
		{"E5", E5Availability, "availability of central/fragmented/replicated placements"},
		{"E6", E6FuzzySearch, "exact vs synonym vs fuzzy retrieval quality"},
		{"E7", E7TaxonomyMatch, "semi-automatic taxonomy matching accuracy and edit cost"},
		{"E8", E8Pipeline, "wrapper + transformation pipeline throughput at supplier scale"},
		{"E9", E9Syndication, "buyer-dependent quoting throughput and formats"},
		{"E10", E10ScaleOut, "throughput vs replica count at fixed offered load"},
		{"E11", E11Pushdown, "ablation: projection pushdown on wide catalog rows"},
		{"E12", E12Remote, "in-process vs HTTP federation overhead"},
		{"E13", E13Streaming, "streaming vs collected scatter-gather memory and latency"},
		{"E14", E14AntiEntropy, "anti-entropy repair time vs outage size, replay vs copy-repair"},
		{"E15", E15Instrumentation, "query observability overhead: instrumented vs bare streamed scan"},
		{"E16", E16Durability, "durability cost and recovery: fsync policy vs DML, replay vs checkpoint restore"},
		{"E17", E17PushdownWire, "σ/π pushdown on the wire: rows decoded, payload bytes, p50 vs selectivity"},
		{"E18", E18Admission, "open-loop offered load vs p50/p99 with and without admission control"},
	}
}
