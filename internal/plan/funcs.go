package plan

import (
	"fmt"
	"math"
	"strings"

	"cohera/internal/ir"
	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Aggregate function names recognized by the grouping executor. They are
// intercepted before scalar evaluation.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// IsAggregateCall reports whether the expression is a call to an
// aggregate function.
func IsAggregateCall(e sqlparse.Expr) bool {
	c, ok := e.(sqlparse.Call)
	return ok && aggregateNames[c.Name]
}

// ContainsAggregate reports whether the expression tree contains any
// aggregate call.
func ContainsAggregate(e sqlparse.Expr) bool {
	found := false
	Walk(e, func(x sqlparse.Expr) bool {
		if IsAggregateCall(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// callValues applies a scalar function to n arguments fetched on demand
// (COALESCE stops at its first non-NULL argument).
func (ev *Evaluator) callValues(name string, n int, arg func(i int) (value.Value, error)) (value.Value, error) {
	if aggregateNames[name] {
		return value.Null, fmt.Errorf("plan: aggregate %s outside GROUP BY context", name)
	}
	custom := ev.Funcs[name]
	if custom == nil && name == "COALESCE" {
		for i := 0; i < n; i++ {
			v, err := arg(i)
			if err != nil {
				return value.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null, nil
	}
	args := make([]value.Value, n)
	for i := range args {
		v, err := arg(i)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	if custom != nil {
		return custom(args)
	}
	return callBuiltin(name, args)
}

func callBuiltin(name string, args []value.Value) (value.Value, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("plan: %s expects %d arguments, got %d", name, n, len(args))
		}
		return nil
	}
	str1 := func() (string, bool, error) {
		if err := argc(1); err != nil {
			return "", false, err
		}
		if args[0].IsNull() {
			return "", true, nil
		}
		if args[0].Kind() != value.KindString {
			return "", false, fmt.Errorf("plan: %s expects TEXT, got %s", name, args[0].Kind())
		}
		return args[0].Str(), false, nil
	}
	switch name {
	case "UPPER":
		s, null, err := str1()
		if err != nil || null {
			return value.Null, err
		}
		return value.NewString(strings.ToUpper(s)), nil
	case "LOWER":
		s, null, err := str1()
		if err != nil || null {
			return value.Null, err
		}
		return value.NewString(strings.ToLower(s)), nil
	case "TRIM":
		s, null, err := str1()
		if err != nil || null {
			return value.Null, err
		}
		return value.NewString(strings.TrimSpace(s)), nil
	case "LENGTH":
		s, null, err := str1()
		if err != nil || null {
			return value.Null, err
		}
		return value.NewInt(int64(len([]rune(s)))), nil
	case "ABS":
		if err := argc(1); err != nil {
			return value.Null, err
		}
		switch args[0].Kind() {
		case value.KindNull:
			return value.Null, nil
		case value.KindInt:
			n := args[0].Int()
			if n < 0 {
				n = -n
			}
			return value.NewInt(n), nil
		case value.KindFloat:
			return value.NewFloat(math.Abs(args[0].Float())), nil
		default:
			return value.Null, fmt.Errorf("plan: ABS expects a number")
		}
	case "ROUND":
		if err := argc(1); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if !isNumeric(args[0]) {
			return value.Null, fmt.Errorf("plan: ROUND expects a number")
		}
		return value.NewInt(int64(math.Round(args[0].Float()))), nil
	case "SUBSTR":
		if len(args) != 3 {
			return value.Null, fmt.Errorf("plan: SUBSTR expects 3 arguments")
		}
		if args[0].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString || args[1].Kind() != value.KindInt || args[2].Kind() != value.KindInt {
			return value.Null, fmt.Errorf("plan: SUBSTR expects (TEXT, INT, INT)")
		}
		r := []rune(args[0].Str())
		start := int(args[1].Int()) - 1 // SQL is 1-based
		length := int(args[2].Int())
		if start < 0 {
			start = 0
		}
		if start > len(r) {
			start = len(r)
		}
		end := start + length
		if end > len(r) {
			end = len(r)
		}
		if end < start {
			end = start
		}
		return value.NewString(string(r[start:end])), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return value.NewString(b.String()), nil
	case "SIMILARITY":
		// SIMILARITY(a, b): edit similarity in [0,1] — exposed so users
		// can rank fuzzy matches explicitly (Characteristic 7).
		if err := argc(2); err != nil {
			return value.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return value.Null, nil
		}
		if args[0].Kind() != value.KindString || args[1].Kind() != value.KindString {
			return value.Null, fmt.Errorf("plan: SIMILARITY expects TEXT arguments")
		}
		return value.NewFloat(ir.EditSimilarity(
			strings.ToLower(args[0].Str()), strings.ToLower(args[1].Str()))), nil
	default:
		return value.Null, fmt.Errorf("plan: unknown function %s", name)
	}
}

// Walk visits the expression tree pre-order; the visitor returns false to
// prune the subtree.
func Walk(e sqlparse.Expr, visit func(sqlparse.Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case sqlparse.Binary:
		Walk(x.Left, visit)
		Walk(x.Right, visit)
	case sqlparse.Not:
		Walk(x.Inner, visit)
	case sqlparse.Neg:
		Walk(x.Inner, visit)
	case sqlparse.IsNull:
		Walk(x.Inner, visit)
	case sqlparse.In:
		Walk(x.Inner, visit)
		for _, item := range x.List {
			Walk(item, visit)
		}
	case sqlparse.Between:
		Walk(x.Inner, visit)
		Walk(x.Lo, visit)
		Walk(x.Hi, visit)
	case sqlparse.Like:
		Walk(x.Inner, visit)
		Walk(x.Pattern, visit)
	case sqlparse.Call:
		for _, a := range x.Args {
			Walk(a, visit)
		}
	case sqlparse.TextMatch:
		Walk(x.Query, visit)
	}
}

// Columns returns the distinct column references in the expression, in
// first-appearance order.
func Columns(e sqlparse.Expr) []sqlparse.ColumnRef {
	var out []sqlparse.ColumnRef
	seen := make(map[string]bool)
	Walk(e, func(x sqlparse.Expr) bool {
		if c, ok := x.(sqlparse.ColumnRef); ok {
			k := strings.ToLower(c.Table + "." + c.Column)
			if !seen[k] {
				seen[k] = true
				out = append(out, c)
			}
		}
		if tm, ok := x.(sqlparse.TextMatch); ok {
			k := strings.ToLower(tm.Col.Table + "." + tm.Col.Column)
			if !seen[k] {
				seen[k] = true
				out = append(out, tm.Col)
			}
		}
		return true
	})
	return out
}
