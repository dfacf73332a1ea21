// Package plan implements expression evaluation and predicate analysis
// shared by the local executor (internal/exec), the federated query
// processor (internal/federation) and the semantic cache (internal/cache).
package plan

import (
	"errors"
	"fmt"
	"strings"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Env resolves column references during evaluation.
type Env interface {
	// Resolve returns the value bound to the (optionally qualified)
	// column reference.
	Resolve(ref sqlparse.ColumnRef) (value.Value, error)
}

// RowEnv is the standard Env: parallel slices of binding names and values.
// Names may be bare ("price") or qualified ("p.price"); resolution tries
// the qualified form first, then unique bare match.
type RowEnv struct {
	Names  []string // lowercase, possibly "table.column"
	Values []value.Value
}

// NewRowEnv builds an environment. Names are normalized to lowercase.
func NewRowEnv(names []string, values []value.Value) *RowEnv {
	return &RowEnv{Names: lowerNames(names), Values: values}
}

func lowerNames(names []string) []string {
	ln := make([]string, len(names))
	for i, n := range names {
		ln[i] = strings.ToLower(n)
	}
	return ln
}

// NewRowEnvRaw wraps names that are already lowercase without copying.
// Row-at-a-time executors build the name list once and swap Values per
// row; the per-row ToLower pass of NewRowEnv dominates tight loops.
func NewRowEnvRaw(names []string, values []value.Value) *RowEnv {
	return &RowEnv{Names: names, Values: values}
}

// ErrUnknownColumn is returned when a reference resolves to no binding.
var ErrUnknownColumn = fmt.Errorf("plan: unknown column")

// ErrAmbiguousColumn is returned when a bare reference matches several
// bindings.
var ErrAmbiguousColumn = fmt.Errorf("plan: ambiguous column")

// ErrEval marks an error met while evaluating a predicate, projection or
// grouped fold over rows (division by zero, a type mismatch, a column the
// rows lack): a fault of the query, not of whoever produced the rows.
// The scan kernel, FuseStream and FoldStream wrap their evaluation
// errors with it, and callers that fail over on a source's failures
// must not fail over on it.
var ErrEval = errors.New("plan: evaluation error")

// MarkEval wraps err so errors.Is(err, ErrEval) holds; the message stays
// err's own. nil stays nil.
func MarkEval(err error) error {
	if err == nil || errors.Is(err, ErrEval) {
		return err
	}
	return evalError{err}
}

type evalError struct{ err error }

func (e evalError) Error() string   { return e.err.Error() }
func (e evalError) Unwrap() []error { return []error{e.err, ErrEval} }

// Resolve implements Env.
func (e *RowEnv) Resolve(ref sqlparse.ColumnRef) (value.Value, error) {
	i, err := resolveName(e.Names, ref)
	if err != nil {
		return value.Null, err
	}
	return e.Values[i], nil
}

// resolveName finds the binding a column reference names among lowercase
// (possibly "table.column") names: a qualified reference matches the
// qualified name; a bare one must match exactly one name's column part.
// RowEnv.Resolve applies it per row, Bind once per expression, so a
// qualified reference is matched part by part in place rather than by
// building "table.column".
func resolveName(names []string, ref sqlparse.ColumnRef) (int, error) {
	col := strings.ToLower(ref.Column)
	if ref.Table != "" {
		table := strings.ToLower(ref.Table)
		for i, n := range names {
			if len(n) == len(table)+1+len(col) && n[len(table)] == '.' &&
				n[:len(table)] == table && n[len(table)+1:] == col {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%w: %s", ErrUnknownColumn, ref)
	}
	found := -1
	for i, n := range names {
		bare := n
		if dot := strings.LastIndexByte(n, '.'); dot >= 0 {
			bare = n[dot+1:]
		}
		if bare == col {
			if found >= 0 {
				return 0, fmt.Errorf("%w: %s", ErrAmbiguousColumn, ref)
			}
			found = i
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("%w: %s", ErrUnknownColumn, ref)
	}
	return found, nil
}

// TextHits resolves a text-search predicate to the ids of the rows it
// matches. The executor installs one backed by the inverted index;
// contexts without text support leave it nil and TextMatch expressions
// fail. The row under evaluation is tested against the set through its
// _rowid binding, so a predicate is resolved once, not once per row.
type TextHits func(tm sqlparse.TextMatch) (map[int64]bool, error)

// Evaluator evaluates expressions. The zero value works for expressions
// without text predicates.
type Evaluator struct {
	// Text, when non-nil, resolves TextMatch predicates.
	Text TextHits
	// Funcs adds or overrides scalar functions by uppercase name.
	Funcs map[string]func(args []value.Value) (value.Value, error)
}

// tri is a SQL truth value. Predicate nodes compute one directly; it
// becomes a BOOLEAN (or NULL) Value only where a value is asked for.
type tri int8

const (
	triFalse tri = iota
	triTrue
	triNull
)

func triOf(b bool) tri {
	if b {
		return triTrue
	}
	return triFalse
}

// truth is the truth value an arbitrary operand contributes to AND, OR
// and NOT: NULL stays unknown, anything else counts by Truthy.
func truth(v *value.Value) tri {
	if v.IsNull() {
		return triNull
	}
	return triOf(v.Truthy())
}

// value renders the truth value as a BOOLEAN, NULL when unknown.
func (t tri) value() value.Value {
	if t == triNull {
		return value.Null
	}
	return value.NewBool(t == triTrue)
}

// Eval computes the expression under the environment. Every node's
// meaning lives in a helper over already-computed operands (logic,
// compare, arith, in, between, like, callValues) that Bind's compiled
// form calls too, so the two cannot drift apart.
func (ev *Evaluator) Eval(e sqlparse.Expr, env Env) (value.Value, error) {
	switch x := e.(type) {
	case sqlparse.Literal:
		return x.Value, nil
	case sqlparse.ColumnRef:
		return env.Resolve(x)
	case sqlparse.Binary:
		l, err := ev.Eval(x.Left, env)
		if err != nil {
			return value.Null, err
		}
		if isLogic(x.Op) {
			lt := truth(&l)
			if decides(x.Op, lt) {
				return lt.value(), nil
			}
			r, err := ev.Eval(x.Right, env)
			if err != nil {
				return value.Null, err
			}
			return logic(x.Op, lt, truth(&r)).value(), nil
		}
		r, err := ev.Eval(x.Right, env)
		if err != nil {
			return value.Null, err
		}
		if isComparison(x.Op) {
			t, err := compare(x.Op, &l, &r)
			return t.value(), err
		}
		return arith(x.Op, l, r)
	case sqlparse.Not:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		return not(truth(&v)).value(), nil
	case sqlparse.Neg:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		return negValue(v)
	case sqlparse.IsNull:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		return value.NewBool(v.IsNull() != x.Negate), nil
	case sqlparse.In:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		t, err := in(&v, len(x.List), x.Negate, func(i int) (value.Value, error) {
			return ev.Eval(x.List[i], env)
		})
		return t.value(), err
	case sqlparse.Between:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		lo, err := ev.Eval(x.Lo, env)
		if err != nil {
			return value.Null, err
		}
		hi, err := ev.Eval(x.Hi, env)
		if err != nil {
			return value.Null, err
		}
		t, err := between(&v, &lo, &hi, x.Negate)
		return t.value(), err
	case sqlparse.Like:
		v, err := ev.Eval(x.Inner, env)
		if err != nil {
			return value.Null, err
		}
		p, err := ev.Eval(x.Pattern, env)
		if err != nil {
			return value.Null, err
		}
		t, err := like(&v, &p, x.Negate)
		return t.value(), err
	case sqlparse.Call:
		return ev.callValues(x.Name, len(x.Args), func(i int) (value.Value, error) {
			return ev.Eval(x.Args[i], env)
		})
	case sqlparse.TextMatch:
		hits, err := ev.textHits(x)
		if err != nil {
			return value.Null, err
		}
		var idv value.Value
		for _, ref := range rowIDRefs(x) {
			if idv, err = env.Resolve(ref); err == nil {
				break
			}
		}
		if err != nil {
			return value.Null, fmt.Errorf("plan: text predicate needs row identity: %w", err)
		}
		return value.NewBool(hits[idv.Int()]), nil
	default:
		return value.Null, unsupportedExpr(e)
	}
}

// unsupportedExpr is the error for a node with no scalar meaning.
func unsupportedExpr(e sqlparse.Expr) error {
	if _, ok := e.(sqlparse.Star); ok {
		return fmt.Errorf("plan: * is not a scalar expression")
	}
	return fmt.Errorf("plan: unsupported expression %T", e)
}

// textHits resolves a text predicate through the installed hook.
func (ev *Evaluator) textHits(x sqlparse.TextMatch) (map[int64]bool, error) {
	if ev.Text == nil {
		return nil, fmt.Errorf("plan: %s predicate unsupported in this context", x.Mode)
	}
	return ev.Text(x)
}

// rowIDRefs lists, in preference order, the bindings that can carry the
// identity of the row a text predicate tests: the _rowid of the
// predicate's own table qualifier, then a bare _rowid (single-table
// scope).
func rowIDRefs(x sqlparse.TextMatch) []sqlparse.ColumnRef {
	bare := sqlparse.ColumnRef{Column: "_rowid"}
	if x.Col.Table == "" {
		return []sqlparse.ColumnRef{bare}
	}
	return []sqlparse.ColumnRef{{Table: x.Col.Table, Column: "_rowid"}, bare}
}

func isLogic(op sqlparse.BinaryOp) bool { return op == sqlparse.OpAnd || op == sqlparse.OpOr }

func isComparison(op sqlparse.BinaryOp) bool {
	switch op {
	case sqlparse.OpEq, sqlparse.OpNe, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
		return true
	}
	return false
}

// decides reports whether the left operand alone settles l AND/OR
// <anything>, so the right operand is never evaluated: a false AND, a
// true OR. The result is then l itself.
func decides(op sqlparse.BinaryOp, l tri) bool {
	return (op == sqlparse.OpAnd && l == triFalse) || (op == sqlparse.OpOr && l == triTrue)
}

// logic is AND/OR under SQL three-valued logic: unknown AND false is
// false, unknown OR true is true, anything else with an unknown is
// unknown.
func logic(op sqlparse.BinaryOp, l, r tri) tri {
	if decides(op, l) {
		return l
	}
	if decides(op, r) {
		return r
	}
	if l == triNull || r == triNull {
		return triNull
	}
	// Neither side decides alone: AND of two trues, OR of two falses.
	return triOf(op == sqlparse.OpAnd)
}

// not is NOT under three-valued logic.
func not(t tri) tri {
	switch t {
	case triTrue:
		return triFalse
	case triFalse:
		return triTrue
	}
	return triNull
}

// negValue is unary minus.
func negValue(v value.Value) (value.Value, error) {
	switch v.Kind() {
	case value.KindInt:
		return value.NewInt(-v.Int()), nil
	case value.KindFloat:
		return value.NewFloat(-v.Float()), nil
	case value.KindNull:
		return value.Null, nil
	case value.KindMoney:
		m, c := v.Money()
		return value.NewMoney(-m, c), nil
	default:
		return value.Null, fmt.Errorf("plan: cannot negate %s", v.Kind())
	}
}

// compare applies a comparison operator; a NULL operand makes the
// result unknown.
func compare(op sqlparse.BinaryOp, l, r *value.Value) (tri, error) {
	if l.IsNull() || r.IsNull() {
		return triNull, nil
	}
	c, err := compareForEval(l, r)
	if err != nil {
		return triNull, err
	}
	return triOf(holds(op, c)), nil
}

// holds reports whether a comparison operator holds for the sign c of
// a three-way comparison of its operands.
func holds(op sqlparse.BinaryOp, c int) bool {
	switch op {
	case sqlparse.OpEq:
		return c == 0
	case sqlparse.OpNe:
		return c != 0
	case sqlparse.OpLt:
		return c < 0
	case sqlparse.OpLe:
		return c <= 0
	case sqlparse.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// compareForEval relaxes value.Compare slightly: string-vs-other compares
// via string coercion failing which it errors. Money and numbers stay
// strict so currency bugs surface.
func compareForEval(l, r *value.Value) (int, error) {
	if c, err := l.Compare(*r); err == nil {
		return c, nil
	} else if l.Kind() == r.Kind() {
		return 0, err
	}
	// Try coercing one side toward the other for mixed literal/text data.
	if l.Kind() == value.KindString {
		if cv, err := value.Coerce(*l, r.Kind()); err == nil {
			return cv.Compare(*r)
		}
	}
	if r.Kind() == value.KindString {
		if cv, err := value.Coerce(*r, l.Kind()); err == nil {
			return l.Compare(cv)
		}
	}
	return l.Compare(*r) // surface the original error
}

func arith(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	// String concatenation via +.
	if op == sqlparse.OpAdd && l.Kind() == value.KindString && r.Kind() == value.KindString {
		return value.NewString(l.Str() + r.Str()), nil
	}
	// Money arithmetic: money ± money (same currency), money * scalar.
	if l.Kind() == value.KindMoney || r.Kind() == value.KindMoney {
		return moneyArith(op, l, r)
	}
	if l.Kind() == value.KindInt && r.Kind() == value.KindInt && op != sqlparse.OpDiv {
		a, b := l.Int(), r.Int()
		switch op {
		case sqlparse.OpAdd:
			return value.NewInt(a + b), nil
		case sqlparse.OpSub:
			return value.NewInt(a - b), nil
		case sqlparse.OpMul:
			return value.NewInt(a * b), nil
		}
	}
	if !isNumeric(l) || !isNumeric(r) {
		return value.Null, fmt.Errorf("plan: %s %s %s unsupported", l.Kind(), op, r.Kind())
	}
	a, b := l.Float(), r.Float()
	switch op {
	case sqlparse.OpAdd:
		return value.NewFloat(a + b), nil
	case sqlparse.OpSub:
		return value.NewFloat(a - b), nil
	case sqlparse.OpMul:
		return value.NewFloat(a * b), nil
	case sqlparse.OpDiv:
		if b == 0 {
			return value.Null, fmt.Errorf("plan: division by zero")
		}
		return value.NewFloat(a / b), nil
	default:
		return value.Null, fmt.Errorf("plan: unsupported arithmetic op %s", op)
	}
}

func moneyArith(op sqlparse.BinaryOp, l, r value.Value) (value.Value, error) {
	switch {
	case l.Kind() == value.KindMoney && r.Kind() == value.KindMoney:
		la, lc := l.Money()
		ra, rc := r.Money()
		if lc != rc {
			return value.Null, fmt.Errorf("%w: %s vs %s", value.ErrCurrencyMismatch, lc, rc)
		}
		switch op {
		case sqlparse.OpAdd:
			return value.NewMoney(la+ra, lc), nil
		case sqlparse.OpSub:
			return value.NewMoney(la-ra, lc), nil
		}
		return value.Null, fmt.Errorf("plan: money %s money unsupported", op)
	case l.Kind() == value.KindMoney && isNumeric(r):
		la, lc := l.Money()
		switch op {
		case sqlparse.OpMul:
			return value.NewMoney(int64(float64(la)*r.Float()+0.5), lc), nil
		case sqlparse.OpDiv:
			if r.Float() == 0 {
				return value.Null, fmt.Errorf("plan: division by zero")
			}
			return value.NewMoney(int64(float64(la)/r.Float()+0.5), lc), nil
		}
		return value.Null, fmt.Errorf("plan: money %s number unsupported", op)
	case isNumeric(l) && r.Kind() == value.KindMoney && op == sqlparse.OpMul:
		ra, rc := r.Money()
		return value.NewMoney(int64(l.Float()*float64(ra)+0.5), rc), nil
	default:
		return value.Null, fmt.Errorf("plan: %s %s %s unsupported", l.Kind(), op, r.Kind())
	}
}

func isNumeric(v value.Value) bool {
	return v.Kind() == value.KindInt || v.Kind() == value.KindFloat
}

// in is [NOT] IN over a computed probe and n list items fetched on
// demand: the first match ends the scan, so later items are never
// evaluated.
func in(v *value.Value, n int, negate bool, item func(i int) (value.Value, error)) (tri, error) {
	if v.IsNull() {
		return triNull, nil
	}
	sawNull := false
	for i := 0; i < n; i++ {
		iv, err := item(i)
		if err != nil {
			return triNull, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		c, err := compareForEval(v, &iv)
		if err != nil {
			continue // incomparable list item can never match
		}
		if c == 0 {
			return triOf(!negate), nil
		}
	}
	if sawNull {
		return triNull, nil
	}
	return triOf(negate), nil
}

// between is [NOT] BETWEEN over computed operands.
func between(v, lo, hi *value.Value, negate bool) (tri, error) {
	if v.IsNull() || lo.IsNull() || hi.IsNull() {
		return triNull, nil
	}
	cl, err := compareForEval(v, lo)
	if err != nil {
		return triNull, err
	}
	ch, err := compareForEval(v, hi)
	if err != nil {
		return triNull, err
	}
	return triOf((cl >= 0 && ch <= 0) != negate), nil
}

// like is [NOT] LIKE over computed operands.
func like(v, p *value.Value, negate bool) (tri, error) {
	if v.IsNull() || p.IsNull() {
		return triNull, nil
	}
	if v.Kind() != value.KindString || p.Kind() != value.KindString {
		return triNull, fmt.Errorf("plan: LIKE requires strings")
	}
	ok := likeMatch(strings.ToLower(v.Str()), strings.ToLower(p.Str()))
	return triOf(ok != negate), nil
}

// likeMatch implements SQL LIKE (% = any run, _ = any single rune) with
// iterative backtracking over the last %.
func likeMatch(s, pattern string) bool {
	sr, pr := []rune(s), []rune(pattern)
	si, pi := 0, 0
	starSi, starPi := -1, -1
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			starPi = pi
			starSi = si
			pi++
		case starPi >= 0:
			starSi++
			si = starSi
			pi = starPi + 1
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}
