package federation

import (
	"context"
	"fmt"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// wideFed builds a federation with a 10-column table on one site.
func wideFed(t *testing.T) (*Federation, *Fragment) {
	t.Helper()
	cols := []schema.Column{{Name: "id", Kind: value.KindInt, NotNull: true}}
	for i := 0; i < 9; i++ {
		cols = append(cols, schema.Column{Name: fmt.Sprintf("c%d", i), Kind: value.KindString})
	}
	def := schema.MustTable("wide", cols, "id")
	fed := New(NewAgoric())
	s := NewSite("s")
	if err := fed.AddSite(s); err != nil {
		t.Fatal(err)
	}
	frag := NewFragment("f", nil, s)
	if _, err := fed.DefineTable(def, frag); err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for i := int64(0); i < 20; i++ {
		r := storage.Row{value.NewInt(i)}
		for j := 0; j < 9; j++ {
			r = append(r, value.NewString(fmt.Sprintf("v%d-%d", j, i)))
		}
		rows = append(rows, r)
	}
	if err := fed.LoadFragment("wide", frag, rows); err != nil {
		t.Fatal(err)
	}
	return fed, frag
}

func TestProjectionPushdownShipsFewerCells(t *testing.T) {
	fed, _ := wideFed(t)
	ctx := context.Background()
	res, trace, err := fed.QueryTraced(ctx, "SELECT c1 FROM wide WHERE id < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || res.Rows[0][0].Str()[:3] != "v1-" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Only id (key) and c1 ship: 2 of 10 columns.
	if trace.CellsShipped != 10*2 {
		t.Errorf("cells shipped = %d, want 20", trace.CellsShipped)
	}
	if trace.CellsWithoutPushdown != 10*10 {
		t.Errorf("cells without pushdown = %d, want 100", trace.CellsWithoutPushdown)
	}
}

// TestProjectionPushdownDisabled: a source that cannot project ships
// full-width rows, and its site projects them before the wire, so the
// coordinator still receives only the columns the statement reads.
func TestProjectionPushdownDisabled(t *testing.T) {
	fed, frag := wideFed(t)
	caps := plan.FullPushCaps()
	caps.Project = false
	src := capStored(t, frag.Replicas()[0], "wide", caps)
	res, trace, err := fed.QueryTraced(context.Background(), "SELECT c1 FROM wide WHERE id < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 || src.shipped.Load() != 10 {
		t.Fatalf("rows = %v, source shipped %d", res.Rows, src.shipped.Load())
	}
	if trace.CellsShipped != 10*2 {
		t.Errorf("cells = %d, want 20 (id and c1)", trace.CellsShipped)
	}
}

func TestProjectionPushdownStarFetchesAll(t *testing.T) {
	fed, _ := wideFed(t)
	res, trace, err := fed.QueryTraced(context.Background(), "SELECT * FROM wide WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 10 {
		t.Fatalf("star rows = %v", res.Rows)
	}
	if trace.CellsShipped != trace.CellsWithoutPushdown {
		t.Errorf("star query should ship full width: %d vs %d",
			trace.CellsShipped, trace.CellsWithoutPushdown)
	}
}

// TestProjectionPushdownAggregates: a site ships an aggregate's
// partial rows, one per group, whether its source folds them or ships
// its rows to the site to fold.
func TestProjectionPushdownAggregates(t *testing.T) {
	const sql = "SELECT c2, COUNT(*) FROM wide GROUP BY c2 ORDER BY c2 LIMIT 3"
	t.Run("rows", func(t *testing.T) {
		fed, frag := wideFed(t)
		src := capStored(t, frag.Replicas()[0], "wide", *noGroupCaps())
		res, trace, err := fed.QueryTraced(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 || src.shipped.Load() != 20 {
			t.Fatalf("rows = %v, source shipped %d", res.Rows, src.shipped.Load())
		}
		// 20 distinct c2 values: 20 partials of c2 + COUNT.
		if trace.CellsShipped != 20*2 || trace.PushedRows["wide/f"] != 20 {
			t.Errorf("agg cells = %d over %d rows, want 40 over 20", trace.CellsShipped, trace.PushedRows["wide/f"])
		}
	})
	t.Run("partials", func(t *testing.T) {
		fed, _ := wideFed(t)
		res, trace, err := fed.QueryTraced(context.Background(), "SELECT COUNT(*), MAX(c2) FROM wide")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != 20 || res.Rows[0][1].Str() != "v2-9" {
			t.Fatalf("rows = %v", res.Rows)
		}
		// One partial row: the count and the maximum.
		if trace.CellsShipped != 2 || trace.PushedRows["wide/f"] != 1 {
			t.Errorf("agg cells = %d over %d rows, want 2 over 1", trace.CellsShipped, trace.PushedRows["wide/f"])
		}
	})
}

func TestProjectionPushdownJoinCorrectness(t *testing.T) {
	fed, _ := wideFed(t)
	// A second table joined on c0: both sides prune independently.
	def2 := schema.MustTable("labels", []schema.Column{
		{Name: "ckey", Kind: value.KindString, NotNull: true},
		{Name: "label", Kind: value.KindString},
		{Name: "unused", Kind: value.KindString},
	}, "ckey")
	s, _ := fed.Site("s")
	frag2 := NewFragment("l", nil, s)
	if _, err := fed.DefineTable(def2, frag2); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("labels", frag2, []storage.Row{
		{value.NewString("v0-3"), value.NewString("three"), value.NewString("x")},
	}); err != nil {
		t.Fatal(err)
	}
	res, trace, err := fed.QueryTraced(context.Background(), `
		SELECT w.c1, l.label FROM wide w JOIN labels l ON w.c0 = l.ckey`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Str() != "three" {
		t.Fatalf("join rows = %v", res.Rows)
	}
	// wide ships id,c0,c1 (3 of 10) for 20 rows; labels ships key,label
	// (2 of 3) for 1 row.
	want := 20*3 + 1*2
	if trace.CellsShipped != want {
		t.Errorf("join cells = %d, want %d", trace.CellsShipped, want)
	}
}

func TestProjectionPushdownTextPredicate(t *testing.T) {
	// A FullText column referenced only inside MATCHES must still ship so
	// the coordinator's inverted index can serve the predicate.
	def := schema.MustTable("docs", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "body", Kind: value.KindString, FullText: true},
		{Name: "extra", Kind: value.KindString},
	}, "id")
	fed := New(NewAgoric())
	s := NewSite("s")
	_ = fed.AddSite(s)
	frag := NewFragment("f", nil, s)
	if _, err := fed.DefineTable(def, frag); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("docs", frag, []storage.Row{
		{value.NewInt(1), value.NewString("cordless drill"), value.NewString("x")},
		{value.NewInt(2), value.NewString("ink"), value.NewString("y")},
	}); err != nil {
		t.Fatal(err)
	}
	res, trace, err := fed.QueryTraced(context.Background(),
		"SELECT id FROM docs WHERE CONTAINS(body, 'drill')")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Fatalf("text rows = %v", res.Rows)
	}
	// id + body ship; extra pruned.
	if trace.CellsShipped != 2*2 {
		t.Errorf("text cells = %d, want 4", trace.CellsShipped)
	}
}
