package federation

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"cohera/internal/exec"
	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// EXPLAIN and EXPLAIN ANALYZE. Plain EXPLAIN renders the coordinator's
// decomposition without running the query: per referenced table, the
// pushdown predicate and projected columns shipped to sites, each
// fragment with its predicate and pruning status, and each replica in
// the optimizer's current rank order with its live availability view
// (breaker position, health score, pending journal intents). EXPLAIN
// ANALYZE executes the statement and renders the per-operator stage
// tree the run produced — rows, batches, bytes, time-to-first-row,
// blocked-upstream/-downstream time — plus the routing trace summary.

// ExplainFragment is one fragment's entry in a plain-EXPLAIN plan.
type ExplainFragment struct {
	Table     string
	ID        string
	Predicate string // fragment predicate, "" when none
	Pruned    bool   // provably disjoint with the pushdown predicate
	Group     string // grouping the fragment folds to partial rows, "" when it ships rows
	Replicas  []ExplainReplica
}

// ExplainReplica is one replica's availability view at plan time.
type ExplainReplica struct {
	Site    string
	Rank    int // optimizer preference, 1 = best; 0 = unranked (down/omitted)
	Breaker string
	Health  float64
	Pending int // journaled write intents awaiting replay here
	EstRows int
}

// ExplainTable is one referenced table's decomposition.
type ExplainTable struct {
	Table      string
	Streaming  bool   // true: the merge answers; false: a scratch database ("materialized")
	Pushdown   string // predicate shipped to sites, "" when none
	Projection []string
	FullWidth  int
	Fragments  []ExplainFragment
}

// ExplainReport is the structured result of Explain. Render flattens
// it into a one-column exec.Result for transports that only carry
// rows; tests and tools consume the fields directly.
type ExplainReport struct {
	SQL      string
	Analyzed bool
	Tables   []ExplainTable

	// Set only when Analyzed: the executed run's artifacts.
	Stages     []obs.StageSnapshot
	Trace      *QueryTrace
	ResultRows int
	Elapsed    time.Duration
}

// FragmentRows returns, per "table/fragment@site" stage detail, the
// rows that fragment shipped during an analyzed run (the "fragment"
// stages of the tree). Nil for plain EXPLAIN.
func (r *ExplainReport) FragmentRows() map[string]int64 {
	if !r.Analyzed {
		return nil
	}
	out := make(map[string]int64)
	for _, st := range r.Stages {
		if st.Stage == "fragment" {
			out[st.Detail] += st.Rows
		}
	}
	return out
}

// Explain plans (and for ANALYZE, executes) an EXPLAIN statement.
func (f *Federation) Explain(ctx context.Context, x sqlparse.ExplainStmt) (*ExplainReport, error) {
	rep := &ExplainReport{SQL: x.Stmt.String(), Analyzed: x.Analyze}

	// The static decomposition renders for both forms: ANALYZE readers
	// still want to see what was pushed down and how replicas ranked.
	var sels []sqlparse.SelectStmt
	switch s := x.Stmt.(type) {
	case sqlparse.SelectStmt:
		sels = []sqlparse.SelectStmt{s}
	case sqlparse.UnionStmt:
		sels = s.Selects
	default:
		return nil, fmt.Errorf("federation: EXPLAIN supports SELECT, got %T", x.Stmt)
	}
	for _, sel := range sels {
		tabs, err := f.explainSelect(ctx, sel)
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, tabs...)
	}
	if !x.Analyze {
		rep.Trace = &QueryTrace{}
		return rep, nil
	}

	// ANALYZE: register the explain itself so the whole run's stages
	// collect under one registry entry (the inner Select's registration
	// no-ops via the nested guard), then execute and drain.
	ctx, aq := obs.ActiveQueries().Register(ctx, "explain", "EXPLAIN ANALYZE "+rep.SQL)
	defer aq.Finish()
	start := time.Now()
	switch s := x.Stmt.(type) {
	case sqlparse.SelectStmt:
		st, trace, err := f.SelectStream(ctx, s)
		if err != nil {
			return nil, err
		}
		rows := 0
		for {
			_, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				//lint:ignore errdrop the stream's terminal error was already captured from Next
				st.Close()
				return nil, err
			}
			rows++
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		rep.ResultRows, rep.Trace = rows, trace
	case sqlparse.UnionStmt:
		res, trace, err := f.Union(ctx, s)
		if err != nil {
			return nil, err
		}
		rep.ResultRows, rep.Trace = len(res.Rows), trace
	}
	rep.Elapsed = time.Since(start)
	if aq != nil {
		rep.Stages = aq.Stages().Snapshot()
	}
	return rep, nil
}

// explainSelect renders one SELECT's static decomposition: planSelect's
// scans, each fragment's pruning, and the replicas' availability.
func (f *Federation) explainSelect(ctx context.Context, sel sqlparse.SelectStmt) ([]ExplainTable, error) {
	p, err := f.planSelect(sel)
	if err != nil {
		return nil, err
	}
	var out []ExplainTable
	for _, sc := range p.scans {
		et := ExplainTable{
			Table:      sc.gt.Def.Name,
			Streaming:  p.streaming,
			FullWidth:  len(sc.gt.Def.Columns),
			Projection: sc.cols,
		}
		if sc.push != nil {
			et.Pushdown = sc.push.String()
		}
		for _, frag := range sc.frags {
			ef := ExplainFragment{Table: sc.gt.Def.Name, ID: frag.ID}
			if sc.group != nil {
				ef.Group = groupSummary(sc.group.g)
			}
			if frag.Predicate != nil {
				ef.Predicate = frag.Predicate.String()
			}
			if frag.Predicate != nil && sc.push != nil && disjoint(frag.Predicate, sc.push) {
				ef.Pruned = true
			}
			est := estimateRows(frag, sc.gt.Def.Name)
			ranked := f.optimizer().Rank(ctx, frag, est)
			rank := make(map[*Site]int, len(ranked))
			for ri, s := range ranked {
				rank[s] = ri + 1
			}
			replicas := frag.Replicas()
			ers := make([]ExplainReplica, 0, len(replicas))
			for _, s := range replicas {
				ers = append(ers, ExplainReplica{
					Site:    s.Name(),
					Rank:    rank[s],
					Breaker: s.Breaker().State().String(),
					Health:  s.HealthScore(),
					Pending: frag.PendingAt(s),
					EstRows: est,
				})
			}
			// Optimizer preference first, unranked (down/omitted) last, by
			// name within a class, so the plan reads in execution order.
			sort.SliceStable(ers, func(a, b int) bool {
				ra, rb := ers[a].Rank, ers[b].Rank
				if ra == 0 {
					ra = len(ers) + 1
				}
				if rb == 0 {
					rb = len(ers) + 1
				}
				if ra != rb {
					return ra < rb
				}
				return ers[a].Site < ers[b].Site
			})
			ef.Replicas = ers
			et.Fragments = append(et.Fragments, ef)
		}
		out = append(out, et)
	}
	return out, nil
}

// Render flattens the report into a single-column result ("plan"), one
// line per row — the shape \explain-style tools and the wire protocol
// already move.
func (r *ExplainReport) Render() *exec.Result {
	res := &exec.Result{Columns: []string{"plan"}}
	add := func(line string) {
		res.Rows = append(res.Rows, storage.Row{value.NewString(line)})
	}
	kw := "EXPLAIN"
	if r.Analyzed {
		kw = "EXPLAIN ANALYZE"
	}
	add(kw + " " + r.SQL)
	for _, t := range r.Tables {
		mode := "materialized"
		if t.Streaming {
			mode = "streaming merge"
		}
		add(fmt.Sprintf("table %s (%s)", t.Table, mode))
		if t.Pushdown != "" {
			add("  pushdown: " + t.Pushdown)
		}
		if len(t.Projection) > 0 {
			add(fmt.Sprintf("  projection: %s (%d of %d columns)",
				strings.Join(t.Projection, ", "), len(t.Projection), t.FullWidth))
		}
		for _, fr := range t.Fragments {
			line := "  fragment " + fr.ID
			if fr.Predicate != "" {
				line += "  predicate: " + fr.Predicate
			}
			if fr.Pruned {
				line += "  [pruned: disjoint with pushdown]"
			} else if fr.Group != "" {
				line += "  " + fr.Group + " pushed"
			}
			add(line)
			if fr.Pruned {
				continue
			}
			for _, rep := range fr.Replicas {
				rl := fmt.Sprintf("    replica %s  breaker=%s health=%.1f est_rows=%d",
					rep.Site, rep.Breaker, rep.Health, rep.EstRows)
				if rep.Rank > 0 {
					rl = fmt.Sprintf("    replica %s  rank=%d breaker=%s health=%.1f est_rows=%d",
						rep.Site, rep.Rank, rep.Breaker, rep.Health, rep.EstRows)
				}
				if rep.Pending > 0 {
					rl += fmt.Sprintf(" [stale: %d intents pending]", rep.Pending)
				}
				add(rl)
			}
		}
	}
	if !r.Analyzed {
		return res
	}
	add("")
	add("execution:")
	for _, line := range renderStageTree(r.Stages) {
		add("  " + line)
	}
	add("")
	add(fmt.Sprintf("result: %d rows in %s", r.ResultRows, r.Elapsed.Round(time.Microsecond)))
	if tr := r.Trace; tr != nil {
		if tr.TraceID != "" {
			add("trace: /debug/trace/" + tr.TraceID)
		}
		if tr.CellsShipped > 0 {
			add(fmt.Sprintf("cells shipped: %d (saved %d by projection pushdown)",
				tr.CellsShipped, tr.CellsWithoutPushdown-tr.CellsShipped))
		}
		if len(tr.PushedRows) > 0 {
			keys := make([]string, 0, len(tr.PushedRows))
			for k := range tr.PushedRows {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				add(fmt.Sprintf("fragment %s: pushed=%d", k, tr.PushedRows[k]))
			}
		}
		if tr.Failovers > 0 {
			add(fmt.Sprintf("failovers: %d", tr.Failovers))
		}
		if tr.PrunedFragments > 0 {
			add(fmt.Sprintf("pruned fragments: %d", tr.PrunedFragments))
		}
		if tr.Degraded {
			keys := make([]string, 0, len(tr.FragmentErrors))
			for k := range tr.FragmentErrors {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			add("DEGRADED: partial result, lost fragments: " + strings.Join(keys, ", "))
		}
		for _, s := range tr.StaleServed {
			add("stale read: " + s)
		}
	}
	return res
}

// renderStageTree formats stage snapshots as an indented tree in
// creation order (parents always precede children).
func renderStageTree(snaps []obs.StageSnapshot) []string {
	depth := make(map[int]int, len(snaps))
	byID := make(map[int]obs.StageSnapshot, len(snaps))
	for _, s := range snaps {
		byID[s.ID] = s
	}
	var out []string
	for _, s := range snaps {
		d := 0
		if _, ok := byID[s.Parent]; s.Parent >= 0 && ok {
			d = depth[s.Parent] + 1
		}
		depth[s.ID] = d
		out = append(out, strings.Repeat("  ", d)+formatStage(s))
	}
	return out
}

// formatStage renders one stage's counters on a single line.
func formatStage(s obs.StageSnapshot) string {
	var b strings.Builder
	b.WriteString(s.Stage)
	if s.Detail != "" {
		b.WriteString(" " + s.Detail)
	}
	fmt.Fprintf(&b, "  rows=%d", s.Rows)
	if s.Batches > 0 {
		fmt.Fprintf(&b, " batches=%d", s.Batches)
	}
	if s.Bytes > 0 {
		fmt.Fprintf(&b, " bytes=%d", s.Bytes)
	}
	fmt.Fprintf(&b, " wall=%s", time.Duration(s.WallNs).Round(time.Microsecond))
	if s.FirstRowNs > 0 {
		fmt.Fprintf(&b, " first_row=%s", time.Duration(s.FirstRowNs).Round(time.Microsecond))
	}
	if s.BlockedUpstreamNs > 0 {
		fmt.Fprintf(&b, " blocked_up=%s", time.Duration(s.BlockedUpstreamNs).Round(time.Microsecond))
	}
	if s.BlockedDownstreamNs > 0 {
		fmt.Fprintf(&b, " blocked_down=%s", time.Duration(s.BlockedDownstreamNs).Round(time.Microsecond))
	}
	if s.PeakBuffered > 0 {
		fmt.Fprintf(&b, " peak_buffered=%d", s.PeakBuffered)
	}
	if s.Err != "" {
		b.WriteString(" error=" + s.Err)
	}
	return b.String()
}
