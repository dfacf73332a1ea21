package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// The EXPLAIN ANALYZE differential contract: the operator tree's row
// accounting must agree exactly with what the executor streams — per
// fragment, through the merge, and out of the LIMIT — on healthy,
// early-terminated, and degraded runs alike.

func parseExplain(t *testing.T, sql string) sqlparse.ExplainStmt {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	x, ok := stmt.(sqlparse.ExplainStmt)
	if !ok {
		t.Fatalf("parsed %T, want ExplainStmt", stmt)
	}
	return x
}

func stageByName(snaps []obs.StageSnapshot, name string) (obs.StageSnapshot, bool) {
	for _, s := range snaps {
		if s.Stage == name {
			return s, true
		}
	}
	return obs.StageSnapshot{}, false
}

// TestExplainAnalyzeMatchesStream runs a spread of queries through both
// the stream executor and EXPLAIN ANALYZE and requires identical
// cardinalities.
func TestExplainAnalyzeMatchesStream(t *testing.T) {
	fed, _ := hotelsFed(t)
	ctx := context.Background()
	for _, sql := range []string{
		"SELECT * FROM hotels",
		"SELECT hotel, city FROM hotels WHERE available > 0",
		"SELECT hotel FROM hotels WHERE miles_to_airport < 5",
		"SELECT hotel FROM hotels LIMIT 7",
	} {
		st, _, err := fed.QueryStream(ctx, sql)
		if err != nil {
			t.Fatalf("%s: stream: %v", sql, err)
		}
		rows, err := storage.CollectRows(st)
		if err != nil {
			t.Fatalf("%s: drain: %v", sql, err)
		}
		rep, err := fed.Explain(ctx, parseExplain(t, "EXPLAIN ANALYZE "+sql))
		if err != nil {
			t.Fatalf("%s: explain analyze: %v", sql, err)
		}
		if rep.ResultRows != len(rows) {
			t.Errorf("%s: explain analyze counted %d rows, stream produced %d", sql, rep.ResultRows, len(rows))
		}
		if lim, ok := stageByName(rep.Stages, "filter/limit"); !ok {
			t.Errorf("%s: no filter/limit stage in %d stages", sql, len(rep.Stages))
		} else if lim.Rows != int64(rep.ResultRows) {
			t.Errorf("%s: filter/limit stage rows = %d, result rows = %d", sql, lim.Rows, rep.ResultRows)
		}
	}
}

// TestExplainAnalyzeFragmentSum is the acceptance shape: on a full
// scan over disjoint fragments, the per-fragment row counts must sum
// exactly to the result cardinality.
func TestExplainAnalyzeFragmentSum(t *testing.T) {
	fed, frags := hotelsFed(t)
	rep, err := fed.Explain(context.Background(), parseExplain(t, "EXPLAIN ANALYZE SELECT * FROM hotels"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultRows != 80 {
		t.Fatalf("result rows = %d, want 80", rep.ResultRows)
	}
	fr := rep.FragmentRows()
	if len(fr) != len(frags) {
		t.Fatalf("fragment stages = %d, want %d (%v)", len(fr), len(frags), fr)
	}
	var sum int64
	for _, n := range fr {
		sum += n
	}
	if int(sum) != rep.ResultRows {
		t.Fatalf("fragment rows sum %d != result rows %d (%v)", sum, rep.ResultRows, fr)
	}
	if m, ok := stageByName(rep.Stages, "merge"); !ok || m.Rows != sum {
		t.Fatalf("merge stage rows = %d ok=%v, want %d", m.Rows, ok, sum)
	}
}

// TestExplainAnalyzeLimitEarlyTermination: a satisfied LIMIT cancels
// the producers, and the tree still accounts consistently — the limit
// stage reports exactly the limit, the merge at least that many.
func TestExplainAnalyzeLimitEarlyTermination(t *testing.T) {
	fed, _ := hotelsFed(t)
	rep, err := fed.Explain(context.Background(), parseExplain(t, "EXPLAIN ANALYZE SELECT hotel FROM hotels LIMIT 5"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultRows != 5 {
		t.Fatalf("result rows = %d, want 5", rep.ResultRows)
	}
	lim, ok := stageByName(rep.Stages, "filter/limit")
	if !ok || lim.Rows != 5 {
		t.Fatalf("filter/limit stage rows = %d ok=%v, want 5", lim.Rows, ok)
	}
	m, ok := stageByName(rep.Stages, "merge")
	if !ok || m.Rows < 5 {
		t.Fatalf("merge stage rows = %d ok=%v, want >= 5", m.Rows, ok)
	}
}

// TestExplainAnalyzeDegraded: under PartialResults with a fragment's
// only replica down, EXPLAIN ANALYZE reports the degraded run — the
// lost fragment's stage carries its error, and the surviving
// fragments' rows still sum to the (partial) result.
func TestExplainAnalyzeDegraded(t *testing.T) {
	fed, _ := hotelsFed(t)
	fed.PartialResults = true
	s, err := fed.Site("h0-0") // fragment f0's only replica
	if err != nil {
		t.Fatal(err)
	}
	s.SetDown(true)
	rep, err := fed.Explain(context.Background(), parseExplain(t, "EXPLAIN ANALYZE SELECT * FROM hotels"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultRows != 60 {
		t.Fatalf("degraded result rows = %d, want 60", rep.ResultRows)
	}
	if rep.Trace == nil || !rep.Trace.Degraded {
		t.Fatalf("trace not marked degraded: %+v", rep.Trace)
	}
	var sum int64
	failed := 0
	for _, st := range rep.Stages {
		if st.Stage != "fragment" {
			continue
		}
		sum += st.Rows
		if st.Err != "" {
			failed++
		}
	}
	if int(sum) != rep.ResultRows {
		t.Fatalf("fragment rows sum %d != degraded result rows %d", sum, rep.ResultRows)
	}
	if failed != 1 {
		t.Fatalf("failed fragment stages = %d, want 1", failed)
	}
}

// TestExplainPlanOnly: plain EXPLAIN renders the decomposition without
// executing anything.
func TestExplainPlanOnly(t *testing.T) {
	fed, frags := hotelsFed(t)
	rep, err := fed.Explain(context.Background(), parseExplain(t, "EXPLAIN SELECT hotel FROM hotels WHERE available > 0"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed || len(rep.Stages) != 0 || rep.ResultRows != 0 {
		t.Fatalf("plain EXPLAIN executed: analyzed=%v stages=%d rows=%d", rep.Analyzed, len(rep.Stages), rep.ResultRows)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Fragments) != len(frags) {
		t.Fatalf("decomposition: %+v", rep.Tables)
	}
	if rep.Tables[0].Pushdown == "" {
		t.Fatalf("no pushdown predicate rendered")
	}
	for _, fr := range rep.Tables[0].Fragments {
		if len(fr.Replicas) == 0 {
			t.Fatalf("fragment %s has no replicas", fr.ID)
		}
		for _, r := range fr.Replicas {
			if r.Breaker != "closed" {
				t.Fatalf("replica %s breaker = %q, want closed", r.Site, r.Breaker)
			}
		}
	}
	res := rep.Render()
	if len(res.Rows) == 0 || len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("rendering: %+v", res.Columns)
	}
	// The registry must be clean: nothing ran, nothing may linger.
	for _, q := range obs.ActiveQueries().Snapshot() {
		if q.Kind == "explain" {
			t.Fatalf("plain EXPLAIN left a registry entry: %+v", q)
		}
	}
}

// TestCancelViaRegistryTypedError: cancelling an in-flight stream
// through obs.ActiveQueries terminates it with the typed operator
// cause, never a clean EOF.
func TestCancelViaRegistryTypedError(t *testing.T) {
	fed, _ := hotelsFed(t)
	marker := "cancel-marker-7f3a"
	sql := fmt.Sprintf("SELECT hotel FROM hotels WHERE hotel <> '%s'", marker)
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := fed.SelectStream(context.Background(), stmt.(sqlparse.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var id int64 = -1
	for _, q := range obs.ActiveQueries().Snapshot() {
		if q.Kind == "select" && containsMarker(q.SQL, marker) {
			id = q.ID
		}
	}
	if id < 0 {
		t.Fatal("open stream not in registry")
	}
	if !obs.ActiveQueries().Cancel(id) {
		t.Fatal("Cancel reported unknown id")
	}
	for {
		_, err := st.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("cancelled stream ended in clean EOF")
		}
		if !errors.Is(err, obs.ErrQueryCanceled) {
			t.Fatalf("terminal error = %v, want obs.ErrQueryCanceled", err)
		}
		break
	}
	// Draining the terminal error settles the stream: it must be gone
	// from the registry without waiting for Close.
	for _, q := range obs.ActiveQueries().Snapshot() {
		if q.ID == id {
			t.Fatalf("cancelled query still registered: %+v", q)
		}
	}
}

func containsMarker(sql, marker string) bool {
	for i := 0; i+len(marker) <= len(sql); i++ {
		if sql[i:i+len(marker)] == marker {
			return true
		}
	}
	return false
}

// TestStreamableQueryBuildsNoScratch: Query of a streamable statement is
// its merge stream, drained. Its stage tree holds the merge and
// filter/limit stages and no local-exec, the stage a run over a scratch
// database leaves; a statement the merge cannot answer alone still
// leaves one.
func TestStreamableQueryBuildsNoScratch(t *testing.T) {
	fed, _ := hotelsFed(t)
	stages := func(sql string) []obs.StageSnapshot {
		t.Helper()
		ctx, aq := obs.ActiveQueries().Register(context.Background(), "test", sql)
		defer aq.Finish()
		if _, _, err := fed.QueryTraced(ctx, sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return aq.Stages().Snapshot()
	}
	sql := "SELECT hotel, city FROM hotels WHERE available > 2 LIMIT 5"
	snaps := stages(sql)
	for _, name := range []string{"filter/limit", "merge", "fragment"} {
		if _, ok := stageByName(snaps, name); !ok {
			t.Errorf("%s: no %s stage in %v", sql, name, renderStageTree(snaps))
		}
	}
	if lim, _ := stageByName(snaps, "filter/limit"); lim.Rows != 5 {
		t.Errorf("%s: filter/limit rows = %d, want 5", sql, lim.Rows)
	}
	if _, ok := stageByName(snaps, "local-exec"); ok {
		t.Errorf("%s: a streamable Query built a scratch database: %v", sql, renderStageTree(snaps))
	}
	sql = "SELECT hotel, city FROM hotels WHERE available > 2 ORDER BY hotel"
	if _, ok := stageByName(stages(sql), "local-exec"); !ok {
		t.Errorf("%s: no local-exec stage", sql)
	}
}
