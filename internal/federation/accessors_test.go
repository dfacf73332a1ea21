package federation

import (
	"context"
	"testing"
	"time"

	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

func TestOptimizerNamesAndSiteCounters(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	if NewAgoric().Name() != "agoric" {
		t.Error("agoric name")
	}
	if NewCentralized(fed).Name() != "centralized" {
		t.Error("centralized name")
	}
	// Exercise the counters through a costed query.
	s, err := fed.Site("east-1")
	if err != nil {
		t.Fatal(err)
	}
	s.SetCost(CostModel{Latency: 100 * time.Microsecond})
	if _, err := fed.Query(context.Background(), "SELECT sku FROM parts WHERE region = 'east'"); err != nil {
		t.Fatal(err)
	}
	if s.Served() == 0 || s.BusyTime() == 0 {
		t.Errorf("counters: served=%d busy=%v", s.Served(), s.BusyTime())
	}
	s.ResetCounters()
	if s.Served() != 0 || s.BusyTime() != 0 {
		t.Error("ResetCounters did not clear")
	}
}

// TestQuerySourcePushdownProjection exercises SubQueryStream's column
// projection on a stored fragment and on a wrapper-backed table, and
// the wrapper path's unknown-column error.
func TestQuerySourcePushdownProjection(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	ctx := context.Background()
	s, _ := fed.Site("east-1")
	st, err := s.SubQueryStream(ctx, "parts", nil, []string{"sku", "price"}, -1)
	if err != nil {
		t.Fatal(err)
	}
	if cols := st.Columns(); len(cols) != 2 || cols[0] != "sku" {
		t.Errorf("projected columns = %v", cols)
	}
	rows, err := storage.CollectRows(st)
	if err != nil || len(rows) != 2 || len(rows[0]) != 2 {
		t.Errorf("projected rows = %v, %v", rows, err)
	}

	// A static source pushes nothing, so the site projects its rows.
	src, err := wrapper.NewStaticSource("static", partsDef().Clone("gadgets"), []storage.Row{
		row("G1", "gizmo", 2, "east"),
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AddSource(src)
	rows, err = subQuery(ctx, s, "gadgets", nil, []string{"price", "sku"})
	if err != nil || len(rows) != 1 || len(rows[0]) != 2 || rows[0][1].Str() != "G1" {
		t.Errorf("wrapper projection = %v, %v", rows, err)
	}
	if _, err := subQuery(ctx, s, "gadgets", nil, []string{"nope"}); err == nil {
		t.Error("projecting a column the source lacks should fail")
	}
}
