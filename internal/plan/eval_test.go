package plan

import (
	"errors"
	"strings"
	"testing"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

func evalStr(t *testing.T, expr string, env Env) value.Value {
	t.Helper()
	e, err := sqlparse.ParseExpr(expr)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", expr, err)
	}
	var ev Evaluator
	v, err := ev.Eval(e, env)
	if err != nil {
		t.Fatalf("Eval(%q): %v", expr, err)
	}
	return v
}

func env(t *testing.T) *RowEnv {
	t.Helper()
	return NewRowEnv(
		[]string{"p.sku", "p.name", "p.price", "p.qty", "s.name"},
		[]value.Value{
			value.NewString("SKU-1"), value.NewString("black ink"),
			value.NewFloat(12.5), value.NewInt(10), value.NewString("Acme"),
		},
	)
}

func TestResolve(t *testing.T) {
	e := env(t)
	v, err := e.Resolve(sqlparse.ColumnRef{Table: "p", Column: "qty"})
	if err != nil || v.Int() != 10 {
		t.Errorf("qualified resolve = %v, %v", v, err)
	}
	v, err = e.Resolve(sqlparse.ColumnRef{Column: "QTY"})
	if err != nil || v.Int() != 10 {
		t.Errorf("bare resolve = %v, %v", v, err)
	}
	if _, err := e.Resolve(sqlparse.ColumnRef{Column: "name"}); err == nil {
		t.Error("ambiguous bare name should fail")
	}
	if _, err := e.Resolve(sqlparse.ColumnRef{Column: "ghost"}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.Resolve(sqlparse.ColumnRef{Table: "x", Column: "qty"}); err == nil {
		t.Error("wrong qualifier should fail")
	}
}

// TestResolveNameAllocs: resolving a lowercase reference, qualified or
// bare, allocates nothing (RowEnv.Resolve runs it once per cell), and a
// qualified match is exact, not a prefix or suffix match.
func TestResolveNameAllocs(t *testing.T) {
	names := []string{"p.sku", "p.name", "p.price", "p.qty", "s.name"}
	for _, ref := range []sqlparse.ColumnRef{{Table: "p", Column: "qty"}, {Column: "price"}} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := resolveName(names, ref); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("resolving %s: %v allocs, want 0", ref, n)
		}
	}
	near := []string{"xp.qty", "p.qtyx", "p_qty", "pqty"}
	if _, err := resolveName(near, sqlparse.ColumnRef{Table: "p", Column: "qty"}); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("p.qty among %v = %v, want ErrUnknownColumn", near, err)
	}
}

func TestArithmetic(t *testing.T) {
	e := env(t)
	if v := evalStr(t, "p.qty + 5", e); v.Int() != 15 {
		t.Errorf("qty+5 = %v", v)
	}
	if v := evalStr(t, "p.qty * 2 - 1", e); v.Int() != 19 {
		t.Errorf("qty*2-1 = %v", v)
	}
	if v := evalStr(t, "p.price * 2", e); v.Float() != 25 {
		t.Errorf("price*2 = %v", v)
	}
	if v := evalStr(t, "10 / 4", e); v.Float() != 2.5 {
		t.Errorf("10/4 = %v", v)
	}
	if v := evalStr(t, "-p.qty", e); v.Int() != -10 {
		t.Errorf("-qty = %v", v)
	}
	if v := evalStr(t, "'a' + 'b'", e); v.Str() != "ab" {
		t.Errorf("string concat = %v", v)
	}
	// Division by zero errors.
	ex, _ := sqlparse.ParseExpr("1 / 0")
	var ev Evaluator
	if _, err := ev.Eval(ex, e); err == nil {
		t.Error("division by zero should error")
	}
}

func TestMoneyArithmetic(t *testing.T) {
	menv := NewRowEnv([]string{"price"}, []value.Value{value.NewMoney(1000, "USD")})
	var ev Evaluator
	eval := func(s string) (value.Value, error) {
		e, err := sqlparse.ParseExpr(s)
		if err != nil {
			t.Fatal(err)
		}
		return ev.Eval(e, menv)
	}
	v, err := eval("price * 2")
	if err != nil {
		t.Fatal(err)
	}
	if m, c := v.Money(); m != 2000 || c != "USD" {
		t.Errorf("price*2 = %v", v)
	}
	v, err = eval("price / 4")
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := v.Money(); m != 250 {
		t.Errorf("price/4 = %v", v)
	}
	v, err = eval("price + price")
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := v.Money(); m != 2000 {
		t.Errorf("price+price = %v", v)
	}
	if _, err := eval("price * price"); err == nil {
		t.Error("money*money should fail")
	}
}

func TestComparisonsAndLogic(t *testing.T) {
	e := env(t)
	truthy := []string{
		"p.qty = 10", "p.qty <> 9", "p.qty > 5", "p.qty >= 10",
		"p.qty < 11", "p.qty <= 10", "5 < p.qty AND p.qty < 15",
		"p.qty = 1 OR p.qty = 10", "NOT (p.qty = 1)",
		"p.name = 'black ink'", "p.qty BETWEEN 5 AND 15",
		"p.qty IN (1, 5, 10)", "p.qty NOT IN (1, 2)",
		"p.name LIKE 'black%'", "p.name LIKE '%INK'", "p.name LIKE '_lack ink'",
		"p.name NOT LIKE 'x%'", "p.sku IS NOT NULL",
		"p.qty NOT BETWEEN 11 AND 20",
	}
	for _, s := range truthy {
		if v := evalStr(t, s, e); !v.Truthy() {
			t.Errorf("%q = %v, want true", s, v)
		}
	}
	falsy := []string{
		"p.qty = 9", "p.qty > 10", "p.name LIKE 'ink%'",
		"p.qty IN (1, 2)", "p.sku IS NULL",
	}
	for _, s := range falsy {
		if v := evalStr(t, s, e); v.Truthy() {
			t.Errorf("%q = %v, want false", s, v)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := NewRowEnv([]string{"x", "y"}, []value.Value{value.Null, value.NewInt(1)})
	// NULL comparisons are NULL.
	if v := evalStr(t, "x = 1", e); !v.IsNull() {
		t.Errorf("NULL = 1 → %v", v)
	}
	// unknown AND false = false; unknown OR true = true.
	if v := evalStr(t, "x = 1 AND y = 2", e); v.Truthy() || v.IsNull() {
		t.Errorf("unknown AND false = %v, want false", v)
	}
	if v := evalStr(t, "x = 1 OR y = 1", e); !v.Truthy() {
		t.Errorf("unknown OR true = %v, want true", v)
	}
	// unknown AND true = unknown.
	if v := evalStr(t, "x = 1 AND y = 1", e); !v.IsNull() {
		t.Errorf("unknown AND true = %v, want NULL", v)
	}
	if v := evalStr(t, "NOT (x = 1)", e); !v.IsNull() {
		t.Errorf("NOT unknown = %v, want NULL", v)
	}
	if v := evalStr(t, "x IN (1, 2)", e); !v.IsNull() {
		t.Errorf("NULL IN = %v, want NULL", v)
	}
	if v := evalStr(t, "y IN (2, NULL)", e); !v.IsNull() {
		t.Errorf("1 IN (2, NULL) = %v, want NULL", v)
	}
	if v := evalStr(t, "x IS NULL", e); !v.Truthy() {
		t.Errorf("NULL IS NULL = %v", v)
	}
}

func TestStringNumberCoercionInCompare(t *testing.T) {
	e := NewRowEnv([]string{"qty"}, []value.Value{value.NewString("42")})
	if v := evalStr(t, "qty = 42", e); !v.Truthy() {
		t.Errorf("'42' = 42 → %v", v)
	}
}

func TestBuiltinFunctions(t *testing.T) {
	e := env(t)
	cases := map[string]string{
		"UPPER(p.name)":           "BLACK INK",
		"LOWER('ABC')":            "abc",
		"TRIM('  x ')":            "x",
		"SUBSTR(p.name, 1, 5)":    "black",
		"SUBSTR(p.name, 7, 100)":  "ink",
		"CONCAT(p.sku, '/', 'x')": "SKU-1/x",
		"COALESCE(NULL, 'y')":     "y",
	}
	for sql, want := range cases {
		if v := evalStr(t, sql, e); v.Str() != want {
			t.Errorf("%s = %q, want %q", sql, v.Str(), want)
		}
	}
	if v := evalStr(t, "LENGTH(p.name)", e); v.Int() != 9 {
		t.Errorf("LENGTH = %v", v)
	}
	if v := evalStr(t, "ABS(-5)", e); v.Int() != 5 {
		t.Errorf("ABS = %v", v)
	}
	if v := evalStr(t, "ABS(-2.5)", e); v.Float() != 2.5 {
		t.Errorf("ABS float = %v", v)
	}
	if v := evalStr(t, "ROUND(2.6)", e); v.Int() != 3 {
		t.Errorf("ROUND = %v", v)
	}
	if v := evalStr(t, "SIMILARITY('drlls', 'drills')", e); v.Float() < 0.8 {
		t.Errorf("SIMILARITY = %v", v)
	}
	// Error cases.
	var ev Evaluator
	for _, bad := range []string{"NOSUCHFN(1)", "UPPER(1)", "UPPER('a','b')", "SUM(p.qty)"} {
		x, err := sqlparse.ParseExpr(bad)
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if _, err := ev.Eval(x, e); err == nil {
			t.Errorf("Eval(%q) should fail", bad)
		}
	}
}

func TestCustomFunc(t *testing.T) {
	ev := Evaluator{Funcs: map[string]func([]value.Value) (value.Value, error){
		"DOUBLE": func(args []value.Value) (value.Value, error) {
			return value.NewInt(args[0].Int() * 2), nil
		},
	}}
	x, _ := sqlparse.ParseExpr("DOUBLE(21)")
	v, err := ev.Eval(x, env(t))
	if err != nil || v.Int() != 42 {
		t.Errorf("DOUBLE(21) = %v, %v", v, err)
	}
}

func TestTextMatchHook(t *testing.T) {
	calls := 0
	ev := Evaluator{Text: func(tm sqlparse.TextMatch) (map[int64]bool, error) {
		calls++
		if tm.Mode != sqlparse.MatchFuzzy {
			return nil, nil
		}
		return map[int64]bool{7: true}, nil
	}}
	// The row's identity reaches the hit set through its _rowid binding.
	withID := func(id int64) *RowEnv {
		e := env(t)
		return NewRowEnv(append(e.Names, "p._rowid"), append(e.Values, value.NewInt(id)))
	}
	x, _ := sqlparse.ParseExpr("FUZZY(p.name, 'drlls')")
	if v, err := ev.Eval(x, withID(7)); err != nil || !v.Truthy() {
		t.Errorf("hit row = %v, %v", v, err)
	}
	if v, err := ev.Eval(x, withID(8)); err != nil || v.Truthy() {
		t.Errorf("missed row = %v, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("hook called %d times, want 2", calls)
	}
	// A row without identity cannot be tested.
	if _, err := ev.Eval(x, env(t)); !errors.Is(err, ErrUnknownColumn) {
		t.Errorf("text predicate without _rowid = %v, want ErrUnknownColumn", err)
	}
	// Without a hook, text predicates error.
	var plain Evaluator
	if _, err := plain.Eval(x, withID(7)); err == nil {
		t.Error("TextMatch without hook should fail")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"black ink", "black%", true},
		{"black ink", "%ink", true},
		{"black ink", "%lac%", true},
		{"black ink", "_lack ink", true},
		{"black ink", "ink%", false},
		{"abc", "a%b%c", true},
		{"abc", "", false},
		{"", "%", true},
		{"abc", "%%", true},
		{"a", "_", true},
		{"ab", "_", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("likeMatch(%q,%q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestWalkAndColumns(t *testing.T) {
	e, _ := sqlparse.ParseExpr("p.a = 1 AND (b + p.a > 2 OR FUZZY(p.name, 'x')) AND c IN (1,2)")
	cols := Columns(e)
	var names []string
	for _, c := range cols {
		names = append(names, c.String())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"p.a", "b", "p.name", "c"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Columns = %v missing %s", names, want)
		}
	}
	if len(cols) != 4 {
		t.Errorf("Columns = %v, want 4 distinct", names)
	}
	// Walk prune: stop at the top.
	count := 0
	Walk(e, func(sqlparse.Expr) bool { count++; return false })
	if count != 1 {
		t.Errorf("pruned walk visited %d", count)
	}
}

func TestAggregateDetection(t *testing.T) {
	e, _ := sqlparse.ParseExpr("SUM(x) + 1")
	if !ContainsAggregate(e) {
		t.Error("ContainsAggregate missed SUM")
	}
	if !IsAggregateCall(e.(sqlparse.Binary).Left) {
		t.Error("IsAggregateCall failed")
	}
	e2, _ := sqlparse.ParseExpr("UPPER(x)")
	if ContainsAggregate(e2) {
		t.Error("UPPER is not an aggregate")
	}
}
