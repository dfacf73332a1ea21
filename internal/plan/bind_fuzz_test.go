package plan

import (
	"errors"
	"strings"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// FuzzBoundEval is the bound form's semantic oracle: for any parseable
// expression, over rows built from the fuzzed scalars, what Bind's
// compiled form computes is what Evaluator.Eval computes — the same
// value (NULLs and three-valued logic included), or the same error
// (type mismatches, division by zero, aggregates in scalar position),
// and BindPred agrees with Truthy of it. The one licensed difference is
// when a bad reference is reported: Bind refuses an unknown or ambiguous
// column up front, Eval only when a row reaches it.
func FuzzBoundEval(f *testing.F) {
	for _, s := range append([]string{
		// Bound-specific shapes: the row id, qualified names, text
		// predicates, every operand position holding a non-leaf.
		"_rowid = 3 OR t.a > _rowid",
		"FUZZY(name, 'drlls') AND NOT MATCHES(t.name, 'ink')",
		"COALESCE(a, b, 1 / 0) BETWEEN -a AND b + 1",
		"(a < b) = (b < a) OR a IN (b, NULL, 'x')",
		"UPPER(s) LIKE LOWER(s) OR COUNT(a) > 0",
		"NOT (a AND NULL) OR (NULL OR b)",
		// Kind-bound leaves (`column op literal`, INT and STRING
		// literals, STRING BETWEEN bounds) beside the shapes that stay
		// generic (the literal on the left, INT and mixed BETWEEN
		// bounds). The rows rotate every kind through each column, so
		// each seed also meets NULL cells, other kinds and the coercion
		// of a STRING literal against an INT cell.
		"3 > a",
		"'x' <= a",
		"a < 'x'",
		"a >= 3 AND a < 4",
		"a = '3'",
		"'-7' <> a",
		"a BETWEEN 1 AND 5",
		"a NOT BETWEEN 'a' AND 'x'",
		"a BETWEEN -7 AND 'x'",
	}, fuzzExprSeeds...) {
		f.Add(s, int64(3), int64(-7), "x", "v0-3")
	}
	f.Fuzz(func(t *testing.T, src string, a, b int64, s1, s2 string) {
		e, err := sqlparse.ParseExpr(src)
		if err != nil {
			t.Skip()
		}
		var names []string
		seen := map[string]bool{"_rowid": true}
		Walk(e, func(x sqlparse.Expr) bool {
			if c, ok := x.(sqlparse.ColumnRef); ok {
				n := strings.ToLower(c.Column)
				if c.Table != "" {
					n = strings.ToLower(c.Table) + "." + n
				}
				if c.Column != "" && !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
			return true
		})
		sc := Scope{Names: append(names, "_rowid"), RowID: true}
		ev := &Evaluator{Text: func(sqlparse.TextMatch) (map[int64]bool, error) {
			return map[int64]bool{a: true, 2: true}, nil
		}}
		bound, err := ev.Bind(e, sc)
		if err != nil {
			if errors.Is(err, ErrUnknownColumn) || errors.Is(err, ErrAmbiguousColumn) {
				t.Skip() // e.g. `a` beside `t.a`: Eval would fail the same way, later
			}
			t.Fatalf("Bind(%q): %v", src, err)
		}
		pred, err := ev.BindPred(e, sc)
		if err != nil {
			t.Fatalf("BindPred(%q) failed where Bind did not: %v", src, err)
		}
		vals := []value.Value{
			value.NewInt(a), value.NewInt(b), value.NewString(s1),
			value.NewString(s2), value.Null, value.NewBool(a%2 == 0),
			value.NewFloat(float64(b) / 2), value.NewMoney(a, "USD"),
		}
		env := &RowEnv{Names: sc.Names}
		for trial := 0; trial < len(vals); trial++ {
			row := make([]value.Value, len(names))
			for i := range row {
				row[i] = vals[(i+trial)%len(vals)]
			}
			id := int64(trial)
			env.Values = append(row[:len(row):len(row)], value.NewInt(id))
			want, wantErr := ev.Eval(e, env)
			got, gotErr := bound(row, id)
			ok, predErr := pred(row, id)
			if (wantErr == nil) != (gotErr == nil) || (wantErr == nil) != (predErr == nil) {
				t.Fatalf("%q on row %v id %d: Eval err=%v, Bound err=%v, Pred err=%v", src, row, id, wantErr, gotErr, predErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() || wantErr.Error() != predErr.Error() {
					t.Fatalf("%q on row %v: Eval failed with %q, Bound with %q, Pred with %q", src, row, wantErr, gotErr, predErr)
				}
				continue
			}
			if got.Kind() != want.Kind() || !got.Equal(want) {
				t.Fatalf("%q on row %v id %d: Eval=%v (%s), Bound=%v (%s)", src, row, id, want, want.Kind(), got, got.Kind())
			}
			if ok != want.Truthy() {
				t.Fatalf("%q on row %v id %d: Eval=%v but Pred=%v", src, row, id, want, ok)
			}
		}
	})
}
