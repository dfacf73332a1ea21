package plan

import (
	"strings"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// fuzzExprSeeds is the expression corpus the semantic fuzz targets
// (FuzzPushdownSplit, FuzzBoundEval) start from.
var fuzzExprSeeds = []string{
	// Mirrors of the parser fuzz seeds.
	"a = 1",
	"NOT a OR b AND c",
	"price * (1 + tax) >= 100",
	"x NOT BETWEEN 1 AND 2",
	"name NOT LIKE '%x%' AND id NOT IN (1,2)",
	"a IS NULL",
	"- - -1",
	// Parser fuzz crashers, carried over as split seeds.
	"\"\"",
	"0.0000001",
	"x NOT IN (1, 2) AND y BETWEEN -1 AND 1e4",
	"SYNONYM(name, 'black ink') OR price / 0 = 1",
	// Split-specific shapes: mixed classes across conjuncts.
	"a = 1 AND b < 2 AND c LIKE 'x%' AND d IS NOT NULL AND (e OR f)",
	"a = b AND c = 3",
}

// FuzzPushdownSplit is the pushdown split's semantic oracle: for any
// parseable WHERE expression and any capability set, the pushable half
// ANDed with the residual must accept exactly the rows the original
// accepts. Rows are generated from the fuzzed scalars over the
// expression's own column references. SQL's AND short-circuits, so a
// split can surface an evaluation error the original never reached (or
// vice versa); rows where any of the three evaluations errors are
// skipped — the equivalence claim is about rows all plans can judge.
func FuzzPushdownSplit(f *testing.F) {
	for _, s := range fuzzExprSeeds {
		f.Add(s, int64(3), int64(-7), "x", "v0-3")
	}
	f.Fuzz(func(t *testing.T, src string, a, b int64, s1, s2 string) {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		var cols []string
		seen := make(map[string]bool)
		Walk(e, func(x sqlparse.Expr) bool {
			if c, ok := x.(sqlparse.ColumnRef); ok {
				n := strings.ToLower(c.Column)
				if n != "" && !seen[n] {
					seen[n] = true
					cols = append(cols, n)
				}
			}
			return true
		})
		vals := []value.Value{
			value.NewInt(a), value.NewInt(b), value.NewString(s1),
			value.NewString(s2), value.Null, value.NewBool(a%2 == 0),
			value.NewFloat(float64(b) / 2),
		}
		env := NewRowEnv(cols, nil)
		ev := &Evaluator{}
		truthy := func(x sqlparse.Expr) (bool, bool) {
			if x == nil {
				return true, true
			}
			v, err := ev.Eval(x, env)
			if err != nil {
				return false, false
			}
			return v.Truthy(), true
		}
		for _, caps := range []PushCaps{
			FullPushCaps(),
			{Classes: []FilterClass{ClassEq}},
			{Classes: []FilterClass{ClassRange, ClassNull}},
			{Classes: []FilterClass{ClassEq, ClassRange, ClassLike, ClassNull}},
			{Classes: []FilterClass{ClassExpr}},
			{Classes: FullPushCaps().Classes, Columns: cols[:len(cols)/2]},
			{},
		} {
			push, resid := SplitPushable(e, caps)
			if push != nil && !Pushable(push, caps) {
				t.Fatalf("split of %q against %+v returned non-pushable half %q",
					src, caps, push.String())
			}
			// Every AND-term of the original must land in exactly one half.
			if got, want := len(sqlparse.AndTerms(push))+len(sqlparse.AndTerms(resid)), len(sqlparse.AndTerms(e)); push != nil || resid != nil {
				if got != want {
					t.Fatalf("split of %q lost terms: %d + residual ≠ %d", src, got, want)
				}
			}
			for trial := 0; trial < len(vals); trial++ {
				row := make(storage.Row, len(cols))
				for i := range cols {
					row[i] = vals[(i+trial)%len(vals)]
				}
				env.Values = row
				want, okO := truthy(e)
				gotPush, okP := truthy(push)
				gotResid, okR := truthy(resid)
				env.Values = nil
				if !okO || !okP || !okR {
					continue // an evaluation error on any plan: no claim
				}
				if got := gotPush && gotResid; got != want {
					t.Fatalf("split of %q against caps %+v disagrees on row %v: original=%v pushable(%v)∧residual(%v)=%v",
						src, caps, row, want, gotPush, gotResid, got)
				}
			}
		}
	})
}
