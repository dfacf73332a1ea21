package federation

import (
	"context"
	"errors"
	"testing"

	"cohera/internal/sqlparse"
)

func TestFederatedInsertRouting(t *testing.T) {
	fed, fragEast, fragWest := twoFragFed(t)
	ctx := context.Background()
	// Routed by the region predicate to the east fragment.
	_, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('E9', 'new ink', 2.0, 'east')")
	if err != nil {
		t.Fatalf("insert: %v", err)
	}
	if dr.Rows != 1 || len(dr.SkippedReplicas) != 0 {
		t.Fatalf("dml result = %+v", dr)
	}
	east := fragEast.Replicas()[0]
	if n := east.TableRows("parts"); n != 3 {
		t.Errorf("east rows = %d, want 3", n)
	}
	for _, w := range fragWest.Replicas() {
		if n := w.TableRows("parts"); n != 2 {
			t.Errorf("west replica got the east row: %d", n)
		}
	}
	// Readable through the federation immediately.
	res, err := fed.Query(ctx, "SELECT sku FROM parts WHERE sku = 'E9'")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("read back = %v, %v", res, err)
	}
}

func TestFederatedInsertReplicatesAllCopies(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	if _, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W9', 'saw', 10.0, 'west')"); err != nil || dr.Rows != 1 {
		t.Fatalf("insert: %+v, %v", dr, err)
	}
	for _, s := range fragWest.Replicas() {
		if n := s.TableRows("parts"); n != 3 {
			t.Errorf("replica %s rows = %d, want 3", s.Name(), n)
		}
	}
}

func TestFederatedInsertSkipsDownReplica(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	down := fragWest.Replicas()[0]
	down.SetDown(true)
	_, dr, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W8', 'saw', 10.0, 'west')")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Rows != 1 || len(dr.SkippedReplicas) != 1 {
		t.Fatalf("dml result = %+v", dr)
	}
	// The live replica has it; the down one missed it (reported).
	live := fragWest.Replicas()[1]
	if live.TableRows("parts") != 3 || down.TableRows("parts") != 2 {
		t.Errorf("rows: live=%d down=%d", live.TableRows("parts"), down.TableRows("parts"))
	}
	// All replicas down → error.
	fragWest.Replicas()[1].SetDown(true)
	if _, _, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('W7', 'saw', 1.0, 'west')"); err == nil {
		t.Error("insert with no live replica should fail")
	}
}

// TestFederatedInsertDefaultFragment: there is no default fragment. A
// row no fragment predicate claims is refused with the typed error and
// reaches no replica — homed in some fragment, it would sit where
// pruning cannot find it.
func TestFederatedInsertDefaultFragment(t *testing.T) {
	fed, fragEast, fragWest := twoFragFed(t)
	ctx := context.Background()
	_, _, err := fed.Exec(ctx,
		"INSERT INTO parts (sku, name, price, region) VALUES ('N1', 'thing', 1.0, 'north')")
	if !errors.Is(err, ErrRowOutsideFragment) {
		t.Fatalf("insert of an unclaimed row: %v, want ErrRowOutsideFragment", err)
	}
	for _, frag := range []*Fragment{fragEast, fragWest} {
		for _, s := range frag.Replicas() {
			if n := s.TableRows("parts"); n != 2 {
				t.Errorf("replica %s rows = %d, want 2 (untouched)", s.Name(), n)
			}
		}
	}
	res, err := fed.Query(ctx, "SELECT sku FROM parts WHERE sku = 'N1'")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("read back = %v, %v; want no row", res, err)
	}
}

// TestFederatedInsertNilPredicateFragment: a fragment without a
// predicate claims every row, so a row the first fragment's predicate
// refuses lands in the later catch-all fragment, and point, range and
// DELETE statements all reach it there.
func TestFederatedInsertNilPredicateFragment(t *testing.T) {
	fed := New(NewAgoric())
	sEast, sRest := NewSite("east-1"), NewSite("rest-1")
	for _, s := range []*Site{sEast, sRest} {
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	eastPred, err := sqlparse.ParseExpr("region = 'east'")
	if err != nil {
		t.Fatal(err)
	}
	fragEast := NewFragment("east", eastPred, sEast)
	fragRest := NewFragment("rest", nil, sRest)
	if _, err := fed.DefineTable(partsDef(), fragEast, fragRest); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, sql := range []string{
		"INSERT INTO parts (sku, name, price, region) VALUES ('E1', 'ink', 3.5, 'east')",
		"INSERT INTO parts (sku, name, price, region) VALUES ('N1', 'thing', 1.0, 'north')",
	} {
		if _, dr, err := fed.Exec(ctx, sql); err != nil || dr.Rows != 1 {
			t.Fatalf("%s: %+v, %v", sql, dr, err)
		}
	}
	if e, r := sEast.TableRows("parts"), sRest.TableRows("parts"); e != 1 || r != 1 {
		t.Fatalf("rows east=%d rest=%d, want 1 and 1 (north row in the catch-all)", e, r)
	}
	for _, sql := range []string{
		"SELECT sku FROM parts WHERE region = 'north'",
		"SELECT sku FROM parts WHERE sku = 'N1'",
		"SELECT sku FROM parts WHERE price BETWEEN 0.5 AND 1.5",
	} {
		res, err := fed.Query(ctx, sql)
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str() != "N1" {
			t.Fatalf("%s = %v, %v; want N1", sql, res, err)
		}
	}
	if _, dr, err := fed.Exec(ctx, "DELETE FROM parts WHERE region = 'north'"); err != nil || dr.Rows != 1 {
		t.Fatalf("delete: %+v, %v", dr, err)
	}
	if n := sRest.TableRows("parts"); n != 0 {
		t.Fatalf("catch-all rows after delete = %d, want 0", n)
	}
}

func TestFederatedUpdateDelete(t *testing.T) {
	fed, _, fragWest := twoFragFed(t)
	ctx := context.Background()
	// Update prunes to the west fragment only.
	_, dr, err := fed.Exec(ctx, "UPDATE parts SET price = 100 WHERE region = 'west'")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Rows != 2 {
		t.Errorf("updated = %+v", dr)
	}
	// Both replicas converged.
	for _, s := range fragWest.Replicas() {
		res, err := s.DB().Exec("SELECT COUNT(*) FROM parts WHERE price = 100")
		if err != nil || res.Rows[0][0].Int() != 2 {
			t.Errorf("replica %s not converged: %v, %v", s.Name(), res, err)
		}
	}
	// Delete across fragments.
	_, dr, err = fed.Exec(ctx, "DELETE FROM parts WHERE price >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if dr.Rows != 3 { // W1, W2 (now 100) + forklift already 12000 → W1,W2 updated to 100 plus forklift? recompute below
		// The west rows became price=100 (2 rows); E rows are 3.5 and 1.2.
		// price >= 100 matches both west rows on the west fragment = 2.
		if dr.Rows != 2 {
			t.Errorf("deleted = %+v", dr)
		}
	}
	res, err := fed.Query(ctx, "SELECT COUNT(*) FROM parts")
	if err != nil || res.Rows[0][0].Int() != 2 {
		t.Errorf("remaining = %v, %v", res, err)
	}
}

func TestFederatedExecErrors(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	bad := []string{
		"garbage",
		"INSERT INTO ghost VALUES (1)",
		"INSERT INTO parts (ghost) VALUES (1)",
		"INSERT INTO parts (sku) VALUES (1, 2)",
		"INSERT INTO parts (name) VALUES ('no key')", // NOT NULL key
		"UPDATE ghost SET x = 1",
		"DELETE FROM ghost",
		"CREATE TABLE t (a TEXT)",
	}
	for _, sql := range bad {
		if _, _, err := fed.Exec(ctx, sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	// SELECT through Exec delegates to Query.
	res, _, err := fed.Exec(ctx, "SELECT COUNT(*) FROM parts")
	if err != nil || res.Rows[0][0].Int() != 4 {
		t.Errorf("select via exec = %v, %v", res, err)
	}
}
