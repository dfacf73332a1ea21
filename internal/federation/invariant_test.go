package federation

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cohera/internal/obs"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// TestUpdateRoutingColumnRejected: an UPDATE that assigns a column any
// fragment predicate reads fails with ErrRoutingColumnUpdate and writes
// nothing; the routing set grows with AddFragment; other columns update
// as before.
func TestUpdateRoutingColumnRejected(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	for _, sql := range []string{
		"UPDATE parts SET region = 'west' WHERE sku = 'E1'",
		"UPDATE parts SET price = 1, REGION = 'east'",
	} {
		if _, _, err := fed.Exec(ctx, sql); !errors.Is(err, ErrRoutingColumnUpdate) {
			t.Errorf("%s: err = %v, want ErrRoutingColumnUpdate", sql, err)
		}
	}
	res, err := fed.Query(ctx, "SELECT sku, price, region FROM parts WHERE sku = 'E1'")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][1].Float() != 3.5 || res.Rows[0][2].Str() != "east" {
		t.Fatalf("E1 after rejected updates: %v, %v", res, err)
	}
	if _, dr, err := fed.Exec(ctx, "UPDATE parts SET price = 4 WHERE sku = 'E1'"); err != nil || dr.Rows != 1 {
		t.Fatalf("non-routing UPDATE: %+v, %v", dr, err)
	}
	// A fragment added later routes on name; name becomes a routing column.
	site := NewSite("north-1")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	pred, err := sqlparse.ParseExpr("name = 'compass'")
	if err != nil {
		t.Fatal(err)
	}
	if err := fed.AddFragment("parts", NewFragment("north", pred, site)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET name = 'x' WHERE sku = 'E1'"); !errors.Is(err, ErrRoutingColumnUpdate) {
		t.Errorf("UPDATE of a column only the added fragment reads: err = %v, want ErrRoutingColumnUpdate", err)
	}
}

// TestLoadFragmentRejectsRowOutsidePredicate: LoadFragment checks every
// row against the fragment predicate before it writes any replica. A
// row the predicate does not hold (a NULL outcome included) fails the
// load with ErrRowOutsideFragment, and no replica holds any of the
// rows.
func TestLoadFragmentRejectsRowOutsidePredicate(t *testing.T) {
	for _, bad := range []storage.Row{
		row("E9", "compass", 2, "west"),
		{value.NewString("E9"), value.NewString("compass"), value.NewFloat(2), value.Null},
	} {
		fed := New(NewAgoric())
		a, b := NewSite("a"), NewSite("b")
		for _, s := range []*Site{a, b} {
			if err := fed.AddSite(s); err != nil {
				t.Fatal(err)
			}
		}
		pred, err := sqlparse.ParseExpr("region = 'east'")
		if err != nil {
			t.Fatal(err)
		}
		frag := NewFragment("east", pred, a, b)
		if _, err := fed.DefineTable(partsDef(), frag); err != nil {
			t.Fatal(err)
		}
		rows := []storage.Row{row("E1", "ink", 3.5, "east"), bad, row("E2", "pen", 1.2, "east")}
		if err := fed.LoadFragment("parts", frag, rows); !errors.Is(err, ErrRowOutsideFragment) {
			t.Fatalf("load with %v: err = %v, want ErrRowOutsideFragment", bad, err)
		}
		for _, s := range []*Site{a, b} {
			if n := s.TableRows("parts"); n != 0 {
				t.Errorf("site %s holds %d rows after a rejected load", s.Name(), n)
			}
		}
	}
}

// TestUnionTraceMergesBranches: a UNION's trace carries its branches'
// pushed rows (summed per fragment) and the larger buffering high-water
// mark.
func TestUnionTraceMergesBranches(t *testing.T) {
	fed, _ := hotelsFed(t)
	applyMixedCaps(t, fed)
	ctx := context.Background()
	first := "SELECT hotel FROM hotels WHERE city = 'Denver' AND available >= 3"
	second := "SELECT hotel FROM hotels WHERE miles_to_airport < 9.5"
	_, t1, err := fed.QueryTraced(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := fed.QueryTraced(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	_, ut, err := fed.QueryTraced(ctx, first+" UNION ALL "+second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ut.PushedRows) == 0 {
		t.Fatal("UNION trace has no pushed rows")
	}
	total := 0
	for k, n := range ut.PushedRows {
		if want := t1.PushedRows[k] + t2.PushedRows[k]; n != want {
			t.Errorf("%s: pushed %d, want %d", k, n, want)
		}
		total += n
	}
	if total == 0 {
		t.Error("the branches shipped no rows; the test checks nothing")
	}
	// The high-water mark varies run to run; a branch's run fills it.
	if ut.PeakBufferedRows == 0 {
		t.Error("UNION trace lost its branches' peak buffered rows")
	}
}

// TestUnionTraceKeepsStaleReads: both branches read the stale west
// replica; the UNION reports both reads.
func TestUnionTraceKeepsStaleReads(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	west1, west2 := fragWest.Replicas()[0], fragWest.Replicas()[1]
	west1.SetDown(true)
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET price = 50 WHERE region = 'west'"); err != nil {
		t.Fatal(err)
	}
	west1.SetDown(false)
	west2.SetDown(true)
	_, tr, err := fed.QueryTraced(ctx,
		"SELECT sku FROM parts WHERE region = 'west' UNION ALL SELECT name FROM parts WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.StaleServed) != 2 || !strings.Contains(tr.StaleServed[1], "west@west-1") {
		t.Fatalf("StaleServed = %v, want the stale west-1 read of each branch", tr.StaleServed)
	}
}

// TestUnionArityMismatchFailsStageAndSpan: a branch with the wrong
// column count fails the union stage and span, not just the call.
func TestUnionArityMismatchFailsStageAndSpan(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	stmt, err := sqlparse.Parse("SELECT sku FROM parts UNION SELECT sku, price FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := obs.StartSpan(context.Background(), "test")
	ctx, aq := obs.ActiveQueries().Register(ctx, "test", "union arity")
	_, _, err = fed.Union(ctx, stmt.(sqlparse.UnionStmt))
	stages := aq.Stages().Snapshot()
	aq.Finish()
	root.End()
	if err == nil || !strings.Contains(err.Error(), "has 2 columns") {
		t.Fatalf("err = %v, want the arity mismatch", err)
	}
	failed := false
	for _, st := range stages {
		if st.Stage == "union" && st.Err != "" {
			failed = true
		}
	}
	if !failed {
		t.Errorf("union stage not failed: %+v", stages)
	}
	failed = false
	for _, sp := range obs.DefaultTracer().Spans(root.TraceID) {
		if sp.Name == "federation.union" && strings.Contains(sp.Err, "has 2 columns") {
			failed = true
		}
	}
	if !failed {
		t.Error("federation.union span carries no error")
	}
}
