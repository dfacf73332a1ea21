package plan_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// foldDef is the fuzzed table: two group columns and one column of
// each numeric kind, every one nullable.
func foldDef() *schema.Table {
	return schema.MustTable("t", []schema.Column{
		{Name: "k", Kind: value.KindString},
		{Name: "g", Kind: value.KindInt},
		{Name: "i", Kind: value.KindInt},
		{Name: "f", Kind: value.KindFloat},
		{Name: "m", Kind: value.KindMoney},
	})
}

// foldAggs is every aggregate form the grouping folds.
var foldAggs = []plan.AggCall{
	{Func: "COUNT"}, {Func: "COUNT", Col: "f"},
	{Func: "SUM", Col: "i"}, {Func: "SUM", Col: "f"}, {Func: "SUM", Col: "m"},
	{Func: "MIN", Col: "i"}, {Func: "MIN", Col: "k"}, {Func: "MAX", Col: "f"}, {Func: "MAX", Col: "m"},
	{Func: "AVG", Col: "i"}, {Func: "AVG", Col: "f"}, {Func: "AVG", Col: "m"},
}

// foldRows generates n rows, about a fifth of each cell NULL. FLOATs
// are non-negative, so partial sums cannot cancel and stay within
// relative error of one running sum.
func foldRows(rng *rand.Rand, n int) []storage.Row {
	maybe := func(v value.Value) value.Value {
		if rng.Intn(5) == 0 {
			return value.Null
		}
		return v
	}
	rows := make([]storage.Row, n)
	for r := range rows {
		rows[r] = storage.Row{
			maybe(value.NewString(fmt.Sprintf("k%d", rng.Intn(4)))),
			maybe(value.NewInt(int64(rng.Intn(3)))),
			maybe(value.NewInt(int64(rng.Intn(2001) - 1000))),
			maybe(value.NewFloat(rng.Float64() * 1000)),
			maybe(value.NewMoney(int64(rng.Intn(100000)-50000), "USD")),
		}
	}
	return rows
}

// combineSQL folds the partial table: counts and sums sum, extremes
// take their extreme, AVG takes its two-argument form over sum and
// count.
func combineSQL(g *plan.Grouping) string {
	cols := g.Columns()
	items := append([]string(nil), g.Keys...)
	for i, p := range g.PartialSlots() {
		switch c := g.Aggs[i]; c.Func {
		case "COUNT":
			items = append(items, "COALESCE(SUM("+cols[p]+"), 0)")
		case "AVG":
			items = append(items, "AVG("+cols[p]+", "+cols[p+1]+")")
		default:
			items = append(items, c.Func+"("+cols[p]+")")
		}
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM partials"
	if len(g.Keys) > 0 {
		sql += " GROUP BY " + strings.Join(g.Keys, ", ")
	}
	return sql
}

// directSQL is the same aggregate over the rows themselves.
func directSQL(g *plan.Grouping) string {
	items := append([]string(nil), g.Keys...)
	for _, c := range g.Aggs {
		items = append(items, c.String())
	}
	sql := "SELECT " + strings.Join(items, ", ") + " FROM t"
	if len(g.Keys) > 0 {
		sql += " GROUP BY " + strings.Join(g.Keys, ", ")
	}
	return sql
}

func rowsKey(r storage.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if v.Kind() == value.KindFloat {
			parts[i] = fmt.Sprintf("%.6g", v.Float())
		} else {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, "|")
}

// FuzzGroupFold is the grouped fold's oracle: rows split into k random
// partitions, each folded by plan.GroupFold (through a FoldStream, as a
// pump folds) and by the scan kernel's grouped fold, then combined by
// the executor over the partial rows, must answer what one executor
// GROUP BY over all the rows answers — FLOATs within 1e-9 relative
// error, everything else exactly.
func FuzzGroupFold(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(1))
	f.Add(int64(2), uint8(0), uint8(2), uint8(0))
	f.Add(int64(3), uint8(7), uint8(9), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, k, keys uint8) {
		rng := rand.New(rand.NewSource(seed))
		def := foldDef()
		rows := foldRows(rng, int(n))
		g := &plan.Grouping{Keys: []string{"k", "g"}[:keys%3], Aggs: foldAggs}
		parts := make([][]storage.Row, 1+int(k)%8)
		for _, r := range rows {
			p := rng.Intn(len(parts))
			parts[p] = append(parts[p], r)
		}

		oracle := exec.NewDatabase()
		if err := oracle.LoadRows(def, rows); err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Exec(directSQL(g))
		if err != nil {
			t.Fatal(err)
		}
		for _, kernel := range []bool{false, true} {
			var partials []storage.Row
			for _, part := range parts {
				var st storage.RowStream
				if kernel {
					tbl := storage.NewTable(def.Clone("t"))
					for _, r := range part {
						if _, err := tbl.Insert(r); err != nil {
							t.Fatal(err)
						}
					}
					if st, err = plan.ScanTable(context.Background(), tbl.Cursor(), plan.ScanSpec{Group: g, Limit: -1}); err != nil {
						t.Fatal(err)
					}
				} else if st, err = plan.NewFoldStream(storage.NewSliceStream(def.ColumnNames(), part), g); err != nil {
					t.Fatal(err)
				}
				got, err := storage.CollectRows(st)
				if err != nil {
					t.Fatal(err)
				}
				partials = append(partials, got...)
			}
			pdef, err := g.PartialTable(def)
			if err != nil {
				t.Fatal(err)
			}
			pdef.Name = "partials"
			db := exec.NewDatabase()
			if err := db.LoadRows(pdef, partials); err != nil {
				t.Fatal(err)
			}
			got, err := db.Exec(combineSQL(g))
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) != len(want.Rows) {
				t.Fatalf("kernel=%v: %d groups, want %d", kernel, len(got.Rows), len(want.Rows))
			}
			sort.Slice(got.Rows, func(i, j int) bool { return rowsKey(got.Rows[i]) < rowsKey(got.Rows[j]) })
			sort.Slice(want.Rows, func(i, j int) bool { return rowsKey(want.Rows[i]) < rowsKey(want.Rows[j]) })
			for i := range got.Rows {
				for j, gv := range got.Rows[i] {
					wv := want.Rows[i][j]
					same := gv.Kind() == wv.Kind() && gv.String() == wv.String()
					if gv.Kind() == value.KindFloat && wv.Kind() == value.KindFloat {
						x, y := gv.Float(), wv.Float()
						same = math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
					}
					if !same {
						t.Fatalf("kernel=%v: row %d column %s = %v, want %v\npartials %v", kernel, i, got.Columns[j], gv, wv, partials)
					}
				}
			}
		}
	})
}
