package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// metric is one reported value. Gated metrics are the ones
// BENCHMARK.json declares; the rest are diagnostics printed for the
// reader (sample counts, tails a run this short cannot hold steady)
// and left out of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produces.
type report struct {
	workload  string
	attempted int64
	failed    int64
	problems  []string // why correct is false; empty when every check passed
	gated     map[string]metric
	diag      map[string]metric
	notes     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, gated: map[string]metric{}, diag: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)  { r.gated[name] = metric{v, unit} }
func (r *report) info(name string, v float64, unit string) { r.diag[name] = metric{v, unit} }
func (r *report) note(format string, a ...any)             { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

// noteWindows states how every gated value but setup_s was read.
func (r *report) noteWindows(width time.Duration) {
	r.note("every metric but setup_s is taken per %v window (%d to a run) and is the decile of the windows on the good side (about the second best window): lowest for a latency, highest for throughput_per_s; diag whole_run.* are the same figures over the whole run", width, windowsPerRun)
}

// problem records a failed output check; the run is then not correct.
// Only the first few are kept verbatim.
func (r *report) problem(format string, a ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, a...))
	}
}

// failOp counts one failed operation: it errored, was shed, came back
// degraded, or disagreed with the oracle.
func (r *report) failOp(format string, a ...any) {
	r.failed++
	r.problem(format, a...)
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// resultLine is the last line of standard output: exactly the keys the
// driver reads.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// print writes every value by name with its unit, then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "# workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	printSorted(w, "metric", r.gated)
	printSorted(w, "diag  ", r.diag)
	line, err := json.Marshal(resultLine{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.gated,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printSorted(w io.Writer, tag string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %-44s %16.6f %s\n", tag, n, ms[n].Value, ms[n].Unit)
	}
}
