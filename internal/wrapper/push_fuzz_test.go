package wrapper

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// cappedERP is a gateway advertising caps instead of full pushdown.
// OpenPushStream sends it only what caps advertise, and it applies
// exactly that.
type cappedERP struct {
	*ERPSource
	caps plan.PushCaps
}

func (s cappedERP) Capabilities() Capabilities {
	c := s.ERPSource.Capabilities()
	c.Push = s.caps
	return c
}

// fetchOnly hides a source's push face: it advertises what the source
// does, but is opened by Fetch, so nothing it is sent gets applied.
type fetchOnly struct{ Source }

// pushFuzzSeeds mirrors the expression seeds of plan's semantic fuzz
// targets, plus shapes that cut across the capability classes.
var pushFuzzSeeds = []string{
	"a = 1",
	"NOT a OR b AND c",
	"price * (1 + tax) >= 100",
	"x NOT BETWEEN 1 AND 2",
	"name NOT LIKE '%x%' AND id NOT IN (1,2)",
	"a IS NULL",
	"x NOT IN (1, 2) AND y BETWEEN -1 AND 1e4",
	"SYNONYM(name, 'black ink') OR price / 0 = 1",
	"a = 1 AND b < 2 AND c LIKE 'x%' AND d IS NOT NULL AND (e OR f)",
	"a = b AND c = 3",
	"",
}

// FuzzOpenPushStream is the oracle of the one pushdown split: for any
// WHERE, any capability record, any projection, limit or grouping and
// any rows, OpenPushStream over a gateway that advertises that record
// yields exactly the rows plan.FuseStream (and plan.NewFoldStream, when
// grouped) yields over the raw rows for the whole request, in order.
// SQL's AND short-circuits, so a split can meet an evaluation error the
// whole predicate never reaches: rows on which any AND-term errors are
// left out of the table, and an input whose reference fails is skipped.
func FuzzOpenPushStream(f *testing.F) {
	for i, s := range pushFuzzSeeds {
		f.Add(s, uint16(i*37), uint8(i*5), uint8(i), int64(i))
	}
	f.Fuzz(func(t *testing.T, where string, capBits uint16, colBits, shape uint8, seed int64) {
		var expr sqlparse.Expr
		if where != "" {
			e, err := sqlparse.ParseExpr(where)
			if err != nil {
				t.Skip()
			}
			expr = e
		}
		// The table: a key, every column the predicate names, a pad.
		names := []string{"id"}
		seen := map[string]bool{"id": true}
		qualified := false // qualified refs never reach a source
		plan.Walk(expr, func(x sqlparse.Expr) bool {
			if c, ok := x.(sqlparse.ColumnRef); ok {
				n := strings.ToLower(c.Column)
				qualified = qualified || c.Table != "" || n == ""
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
			return true
		})
		if qualified {
			t.Skip()
		}
		if !seen["pad"] {
			names = append(names, "pad")
		}
		kinds := []value.Kind{value.KindInt, value.KindString, value.KindFloat, value.KindBool}
		cols := []schema.Column{{Name: "id", Kind: value.KindInt, NotNull: true}}
		for i, n := range names[1:] {
			cols = append(cols, schema.Column{Name: n, Kind: kinds[i%len(kinds)]})
		}
		def, err := schema.NewTable("t", cols, "id")
		if err != nil {
			t.Skip()
		}

		rng := rand.New(rand.NewSource(seed))
		cell := func(k value.Kind) value.Value {
			if rng.Intn(6) == 0 {
				return value.Null
			}
			switch k {
			case value.KindInt:
				return value.NewInt(int64(rng.Intn(7) - 3))
			case value.KindString:
				return value.NewString([]string{"", "x", "x%", "black ink", "v0-3"}[rng.Intn(5)])
			case value.KindFloat:
				return value.NewFloat(float64(rng.Intn(9)-4) / 2)
			}
			return value.NewBool(rng.Intn(2) == 0)
		}
		ev := &plan.Evaluator{}
		terms := sqlparse.AndTerms(expr)
		tbl := storage.NewTable(def)
		var raw []storage.Row
		for i := rng.Intn(13); i > 0; i-- {
			r := storage.Row{value.NewInt(int64(len(raw)))}
			for _, c := range cols[1:] {
				r = append(r, cell(c.Kind))
			}
			env := plan.NewRowEnv(names, r)
			evals := true
			for _, term := range append(terms, expr) {
				if term == nil {
					continue
				}
				if _, err := ev.Eval(term, env); err != nil {
					evals = false
					break
				}
			}
			if !evals {
				continue
			}
			if _, err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			raw = append(raw, r)
		}

		// The request: a grouping, or a projection and a limit.
		push := Pushdown{Where: expr}
		if shape%3 == 0 {
			g := &plan.Grouping{Aggs: []plan.AggCall{{Func: "COUNT"}}}
			if k := int(colBits) % (len(names) + 1); k < len(names) {
				g.Keys = []string{names[k]}
			}
			g.Aggs = append(g.Aggs, plan.AggCall{Func: "MIN", Col: names[int(colBits>>4)%len(names)]})
			if g.Validate() != nil {
				t.Skip()
			}
			push.Group = g
		} else {
			for i, n := range names {
				if colBits&(1<<(i%8)) != 0 {
					push.Cols = append(push.Cols, n)
				}
			}
			if shape%2 == 0 {
				for i, j := 0, len(push.Cols)-1; i < j; i, j = i+1, j-1 {
					push.Cols[i], push.Cols[j] = push.Cols[j], push.Cols[i]
				}
			}
			push.Limit = int(shape>>2) % 5
		}
		caps := plan.PushCaps{Project: capBits&(1<<5) != 0, Limit: capBits&(1<<6) != 0, Group: capBits&(1<<7) != 0}
		for i, c := range []plan.FilterClass{plan.ClassEq, plan.ClassRange, plan.ClassLike, plan.ClassNull, plan.ClassExpr} {
			if capBits&(1<<i) != 0 {
				caps.Classes = append(caps.Classes, c)
			}
		}

		want, wantErr := reference(raw, names, push)
		if wantErr != nil {
			t.Skip()
		}
		var src Source = cappedERP{ERPSource: NewERPSource("t", tbl), caps: caps}
		if capBits&(1<<8) != 0 {
			src = fetchOnly{src}
		}
		st, err := OpenPushStream(context.Background(), src, push)
		if err != nil {
			t.Fatalf("%q caps %+v request %+v: open: %v", where, caps, push, err)
		}
		got, err := storage.CollectRows(st)
		if err != nil {
			t.Fatalf("%q caps %+v request %+v: %v", where, caps, push, err)
		}
		if g, w := rowsText(got), rowsText(want); g != w {
			t.Fatalf("%q caps %+v request %+v:\n got  %s\n want %s", where, caps, push, g, w)
		}
	})
}

// reference evaluates the whole request over the raw rows.
func reference(raw []storage.Row, names []string, push Pushdown) ([]storage.Row, error) {
	spec := plan.FuseSpec{Where: push.Where, Limit: -1}
	if push.Limit > 0 {
		spec.Limit = push.Limit
	}
	if push.Cols != nil {
		idx, err := columnIndexes(names, push.Cols)
		if err != nil {
			return nil, err
		}
		spec.Project = idx
	}
	st := storage.RowStream(plan.FuseStream(storage.NewSliceStream(names, raw), spec))
	if push.Group != nil {
		fold, err := plan.NewFoldStream(st, push.Group)
		if err != nil {
			st.Close()
			return nil, err
		}
		st = fold
	}
	return storage.CollectRows(st)
}

// rowsText renders rows cell by cell, kinds included.
func rowsText(rows []storage.Row) string {
	var b strings.Builder
	for _, r := range rows {
		for _, v := range r {
			fmt.Fprintf(&b, "%d:%s,", v.Kind(), v.String())
		}
		b.WriteString("; ")
	}
	return b.String()
}
