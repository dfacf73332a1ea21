package plan

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// scanTable is a ten-row table: sku S0..S9, qty 0..9, note NULL on odd
// rows.
func scanTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(schema.MustTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "qty", Kind: value.KindInt},
		{Name: "note", Kind: value.KindString},
	}, "sku"))
	for i := 0; i < 10; i++ {
		note := value.Null
		if i%2 == 0 {
			note = value.NewString("even")
		}
		if _, err := tbl.Insert(storage.Row{value.NewString(fmt.Sprintf("S%d", i)), value.NewInt(int64(i)), note}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func mustExpr(t *testing.T, src string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	return e
}

func scanRows(t *testing.T, tbl *storage.Table, spec ScanSpec) []storage.Row {
	t.Helper()
	st, err := ScanTable(context.Background(), tbl.Cursor(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTableScanFilterProjectLimit(t *testing.T) {
	tbl := scanTable(t)
	// Zero spec but for the limit: every stored column of every row.
	if rows := scanRows(t, tbl, ScanSpec{Limit: -1}); len(rows) != 10 || len(rows[3]) != 3 || rows[3][1].Int() != 3 {
		t.Fatalf("plain scan = %v", rows)
	}
	// NULL drops the row: note = 'even' is unknown on odd rows, and so
	// is its negation.
	if rows := scanRows(t, tbl, ScanSpec{Where: mustExpr(t, "NOT (note = 'even')"), Limit: -1}); len(rows) != 0 {
		t.Fatalf("NOT over NULL kept %d rows", len(rows))
	}
	// Filter, computed and slot projections, the row id, offset, limit.
	rows := scanRows(t, tbl, ScanSpec{
		Alias: "p",
		Where: mustExpr(t, "p.qty >= 2 AND note IS NOT NULL"),
		Project: []sqlparse.Expr{
			mustExpr(t, "sku"), mustExpr(t, "qty * 10"), mustExpr(t, "p._rowid"),
		},
		Columns: []string{"sku", "tens", "id"},
		Offset:  1,
		Limit:   2,
	})
	if got := fmt.Sprint(rows); got != "[[S4 40 5] [S6 60 7]]" {
		t.Fatalf("rows = %s", got)
	}
	// Rows are the caller's: writing to one must not reach the table.
	rows[0][0] = value.NewString("clobbered")
	if r, _ := tbl.Get(5); r[0].Str() != "S4" {
		t.Fatalf("stored row changed to %v through a scanned copy", r)
	}
}

// TestAccessPathIntersectsRanges: every sargable conjunct on the indexed
// column narrows the one index lookup, so the candidates are the rows in
// the range — not everything above its lower bound, with the upper bound
// left to the residual — and ScanStored over that path keeps exactly the
// rows the predicate does.
func TestAccessPathIntersectsRanges(t *testing.T) {
	tbl := storage.NewTable(schema.MustTable("items", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "qty", Kind: value.KindInt},
	}, "sku"))
	for i := 0; i < 100; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewString(fmt.Sprintf("S%03d", i)), value.NewInt(int64(i % 10))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("sku"); err != nil {
		t.Fatal(err)
	}
	scanStored := func(where sqlparse.Expr) ([]storage.Row, error) {
		st, err := ScanStored(context.Background(), tbl, where, ScanSpec{Limit: -1})
		if err != nil {
			return nil, err
		}
		return storage.CollectRows(st)
	}
	for _, tc := range []struct {
		where      string
		candidates int    // ids the index hands the scan
		residual   string // what the scan must still check
		rows       int    // rows the scan keeps
	}{
		{"sku >= 'S010' AND sku <= 'S019'", 10, "", 10},
		// Exclusive bounds: the inclusive lookup may hand over the bound
		// row itself; the residual keeps the conjunct to drop it.
		{"sku >= 'S010' AND sku < 'S020'", 11, "(sku < 'S020')", 10},
		{"sku > 'S010' AND sku < 'S020' AND qty = 5", 11, "(((sku > 'S010') AND (sku < 'S020')) AND (qty = 5))", 1},
		{"sku BETWEEN 'S000' AND 'S050' AND sku >= 'S040' AND 'S045' >= sku", 6, "", 6},
		{"sku >= 'S050' AND sku = 'S060'", 1, "", 1},
		{"sku = 'S060' AND sku = 'S061'", 0, "", 0},
		{"sku > 'S020' AND sku < 'S010'", 0, "((sku > 'S020') AND (sku < 'S010'))", 0},
		// A bound that cannot be ordered against the others stays out of
		// the lookup and in the residual.
		{"sku >= 'S090' AND sku <= 99", 10, "(sku <= 99)", -1},
	} {
		where := mustExpr(t, tc.where)
		ids, used, residual := accessPath(tbl, where)
		if !used {
			t.Errorf("%s: index not used", tc.where)
			continue
		}
		if len(ids) != tc.candidates {
			t.Errorf("%s: %d candidate ids, want %d", tc.where, len(ids), tc.candidates)
		}
		got := ""
		if residual != nil {
			got = residual.String()
		}
		if got != tc.residual {
			t.Errorf("%s: residual %q, want %q", tc.where, got, tc.residual)
		}
		if tc.rows < 0 {
			continue // the predicate is a type error either way
		}
		if rows, err := scanStored(where); err != nil || len(rows) != tc.rows {
			t.Errorf("%s: %d rows, %v; want %d", tc.where, len(rows), err, tc.rows)
		}
	}
	// A NULL bound is true of no row; it must not read as "unbounded".
	for _, where := range []string{"sku >= NULL", "sku = NULL", "sku BETWEEN 'S000' AND NULL"} {
		if rows, err := scanStored(mustExpr(t, where)); err != nil || len(rows) != 0 {
			t.Errorf("%s: %d rows, %v; want none", where, len(rows), err)
		}
	}
}

// TestTableScanBindsAtOpen: a reference that cannot be resolved fails
// ScanTable, typed, whether or not any row would have reached it.
func TestTableScanBindsAtOpen(t *testing.T) {
	tbl := scanTable(t)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		spec ScanSpec
		want error
	}{
		{"where", ScanSpec{Where: mustExpr(t, "qty < 0 AND nosuch = 1")}, ErrUnknownColumn},
		{"project", ScanSpec{Project: []sqlparse.Expr{mustExpr(t, "nosuch")}}, ErrUnknownColumn},
		{"project expr", ScanSpec{Project: []sqlparse.Expr{mustExpr(t, "qty + nosuch")}}, ErrUnknownColumn},
		{"wrong alias", ScanSpec{Alias: "p", Where: mustExpr(t, "q.qty = 1")}, ErrUnknownColumn},
	} {
		if st, err := ScanTable(ctx, tbl.Cursor(), tc.spec); !errors.Is(err, tc.want) {
			if err == nil {
				st.Close()
			}
			t.Errorf("%s: open err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// A text predicate with no resolver is refused before any row is read.
	if _, err := ScanTable(ctx, tbl.Cursor(), ScanSpec{Where: mustExpr(t, "MATCHES(note, 'even')")}); err == nil {
		t.Error("text predicate bound without a resolver")
	}
	// Ambiguity needs two names with one column part.
	ev := &Evaluator{}
	if _, err := ev.Bind(mustExpr(t, "qty"), Scope{Names: []string{"a.qty", "b.qty"}}); !errors.Is(err, ErrAmbiguousColumn) {
		t.Errorf("ambiguous bind err = %v", err)
	}
}

// TestTableScanRowErrors: an error that depends on the row surfaces
// after the rows before it, and only if the scan gets that far.
func TestTableScanRowErrors(t *testing.T) {
	tbl := scanTable(t)
	spec := ScanSpec{Where: mustExpr(t, "10 / (qty - 3) < 100"), Limit: -1}
	st, err := ScanTable(context.Background(), tbl.Cursor(), spec)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err == nil || len(rows) != 3 {
		t.Fatalf("scan = %d rows, %v; want 3 rows then division by zero", len(rows), err)
	}
	spec.Limit = 3
	if rows := scanRows(t, tbl, spec); len(rows) != 3 {
		t.Fatalf("limited scan = %d rows", len(rows))
	}
}

// TestTableScanStopsAtLimit counts the rows the kernel looks at,
// through a scalar function in the WHERE that is true of every row.
func TestTableScanStopsAtLimit(t *testing.T) {
	tbl := scanTable(t)
	visited := 0
	ev := &Evaluator{Funcs: map[string]func([]value.Value) (value.Value, error){
		"VISIT": func([]value.Value) (value.Value, error) { visited++; return value.NewBool(true), nil },
	}}
	spec := ScanSpec{Where: mustExpr(t, "VISIT(qty)"), Eval: ev, Limit: 2}
	if rows := scanRows(t, tbl, spec); len(rows) != 2 || visited != 2 {
		t.Fatalf("LIMIT 2 emitted %d rows after visiting %d", len(rows), visited)
	}
	spec.Limit = 0
	if rows := scanRows(t, tbl, spec); len(rows) != 0 || visited != 2 {
		t.Fatalf("LIMIT 0 emitted %d rows, visited %d more", len(rows), visited-2)
	}
}

func TestTableScanCancel(t *testing.T) {
	tbl := scanTable(t)
	ctx, cancel := context.WithCancelCause(context.Background())
	st, err := ScanTable(ctx, tbl.Cursor(), ScanSpec{Limit: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("operator kill")
	cancel(cause)
	if _, err := st.Next(); !errors.Is(err, cause) {
		t.Fatalf("Next after cancel = %v, want the cancellation cause", err)
	}
}

// TestFuseStreamBindError: FuseStream has no error return, so a WHERE
// that does not bind fails the first Next.
func TestFuseStreamBindError(t *testing.T) {
	inner := storage.NewSliceStream([]string{"a"}, []storage.Row{{value.NewInt(1)}})
	st := FuseStream(inner, FuseSpec{Where: mustExpr(t, "b = 1"), Limit: -1})
	defer st.Close()
	if _, err := st.Next(); !errors.Is(err, ErrUnknownColumn) {
		t.Fatalf("Next = %v, want ErrUnknownColumn", err)
	}
}

// BenchmarkScanTable prices the scan kernel alone: one 5 000-row
// catalog shard (the catalog's seven columns, qty rewritten to
// i % 1000), scanned for the standing benchmark's filter, for its
// search scope, and with no predicate. ns/row is per stored row
// visited.
func BenchmarkScanTable(b *testing.B) {
	const rows = 5000
	sup := workload.Suppliers(1, rows, 0.05, 1)[0]
	data, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
	if err != nil {
		b.Fatal(err)
	}
	tbl := storage.NewTable(workload.CatalogDef())
	for i, r := range data {
		r[0] = value.NewString(fmt.Sprintf("P%07d", i))
		r[6] = value.NewInt(int64(i % 1000))
		if _, err := tbl.Insert(r); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct{ name, where string }{
		{"filter", "qty >= 500 AND qty < 501"},
		{"search", fmt.Sprintf("category = '%s' AND qty < 200", data[0][3].Str())},
		{"all", ""},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := ScanSpec{Limit: -1}
			if bc.where != "" {
				if spec.Where, err = sqlparse.ParseExpr(bc.where); err != nil {
					b.Fatal(err)
				}
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := ScanTable(ctx, tbl.Cursor(), spec)
				if err != nil {
					b.Fatal(err)
				}
				for {
					if _, err := st.Next(); err == io.EOF {
						break
					} else if err != nil {
						b.Fatal(err)
					}
				}
				st.Close()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
