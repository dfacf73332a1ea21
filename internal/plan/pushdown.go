package plan

import (
	"sort"
	"strings"

	"cohera/internal/sqlparse"
)

// Capability-aware predicate pushdown. A wrapper or site advertises a
// PushCaps record describing which operator classes it can filter on,
// whether it can project columns, and whether it can stop after a limit.
// SplitPushable divides a WHERE clause into the conjunction a site with
// those capabilities can evaluate and the residual the coordinator must
// keep. The split is sound under SQL three-valued logic: WHERE keeps
// exactly the truthy rows, and `A AND B` is truthy iff both conjuncts
// are, so filtering by the pushed part and then the residual keeps the
// same rows as filtering by the original — NULL outcomes drop the row at
// whichever layer evaluates the conjunct.

// FilterClass names one pushable operator class.
type FilterClass string

// Operator classes. A conjunct is pushable only when every class it
// requires is advertised. ClassText is never advertised: text predicates
// need the coordinator's inverted index and synonym tables.
const (
	// ClassEq covers =, <>, and IN over a column and literals.
	ClassEq FilterClass = "eq"
	// ClassRange covers <, <=, >, >=, and BETWEEN over a column and literals.
	ClassRange FilterClass = "range"
	// ClassLike covers LIKE / NOT LIKE with a literal pattern.
	ClassLike FilterClass = "like"
	// ClassNull covers IS NULL / IS NOT NULL.
	ClassNull FilterClass = "null"
	// ClassExpr covers everything else a full evaluator can run:
	// arithmetic, scalar calls, OR, NOT, comparisons between columns.
	ClassExpr FilterClass = "expr"
	// ClassText marks text-search predicates (CONTAINS/FUZZY/...).
	// It is never pushable.
	ClassText FilterClass = "text"
)

// PushCaps is a capability record advertised by a wrapper or site.
// The zero value can push nothing.
type PushCaps struct {
	// Classes lists the operator classes the source can filter on.
	Classes []FilterClass
	// Columns restricts filtering to the named columns (lowercased
	// here on first use); nil means any column.
	Columns []string
	// Project reports whether the source can return a column subset.
	Project bool
	// Limit reports whether the source can stop after N rows.
	Limit bool
	// Group reports whether the source can fold a decomposable GROUP
	// BY (see Grouping) into partial rows.
	Group bool
}

// FullPushCaps advertises everything a complete SQL engine can do:
// every class except text, projection, limit, and grouping.
func FullPushCaps() PushCaps {
	return PushCaps{
		Classes: []FilterClass{ClassEq, ClassRange, ClassLike, ClassNull, ClassExpr},
		Project: true,
		Limit:   true,
		Group:   true,
	}
}

// HasClass reports whether the record advertises the class.
func (c PushCaps) HasClass(fc FilterClass) bool {
	for _, have := range c.Classes {
		if have == fc {
			return true
		}
	}
	return false
}

// CanFilter reports whether the record advertises any filtering at all.
func (c PushCaps) CanFilter() bool { return len(c.Classes) > 0 }

// allowsColumn reports whether filters may reference the column.
func (c PushCaps) allowsColumn(name string) bool {
	if c.Columns == nil {
		return true
	}
	name = strings.ToLower(name)
	for _, have := range c.Columns {
		if strings.ToLower(have) == name {
			return true
		}
	}
	return false
}

// ClassifyExpr returns the sorted set of operator classes a site must
// advertise to evaluate e. An expression touching only literals and
// column refs under a supported comparison yields that comparison's
// class; anything structurally richer adds ClassExpr; text predicates
// add ClassText.
func ClassifyExpr(e sqlparse.Expr) []FilterClass {
	set := map[FilterClass]bool{}
	classify(e, set)
	out := make([]FilterClass, 0, len(set))
	for fc := range set {
		out = append(out, fc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// simpleOperand reports whether e is a bare column, a literal, or a
// negated literal — the operand shapes index-backed filters handle.
func simpleOperand(e sqlparse.Expr) bool {
	switch x := e.(type) {
	case sqlparse.Literal, sqlparse.ColumnRef:
		return true
	case sqlparse.Neg:
		_, lit := x.Inner.(sqlparse.Literal)
		return lit
	}
	return false
}

// operand records the classes an operand side requires: nothing when it
// is simple, ClassExpr plus its own inner classes otherwise.
func operand(e sqlparse.Expr, set map[FilterClass]bool) {
	if simpleOperand(e) {
		return
	}
	set[ClassExpr] = true
	classify(e, set)
}

func classify(e sqlparse.Expr, set map[FilterClass]bool) {
	switch x := e.(type) {
	case nil:
	case sqlparse.Literal, sqlparse.ColumnRef, sqlparse.Star:
	case sqlparse.Neg:
		if !simpleOperand(x) {
			set[ClassExpr] = true
			classify(x.Inner, set)
		}
	case sqlparse.Binary:
		switch x.Op {
		case sqlparse.OpEq, sqlparse.OpNe:
			set[ClassEq] = true
			operand(x.Left, set)
			operand(x.Right, set)
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			set[ClassRange] = true
			operand(x.Left, set)
			operand(x.Right, set)
		case sqlparse.OpAnd:
			classify(x.Left, set)
			classify(x.Right, set)
		default:
			// OR, arithmetic: general expression evaluation.
			set[ClassExpr] = true
			classify(x.Left, set)
			classify(x.Right, set)
		}
	case sqlparse.Not:
		set[ClassExpr] = true
		classify(x.Inner, set)
	case sqlparse.IsNull:
		set[ClassNull] = true
		operand(x.Inner, set)
	case sqlparse.In:
		set[ClassEq] = true
		operand(x.Inner, set)
		for _, item := range x.List {
			operand(item, set)
		}
	case sqlparse.Between:
		set[ClassRange] = true
		operand(x.Inner, set)
		operand(x.Lo, set)
		operand(x.Hi, set)
	case sqlparse.Like:
		set[ClassLike] = true
		operand(x.Inner, set)
		operand(x.Pattern, set)
	case sqlparse.Call:
		set[ClassExpr] = true
		for _, a := range x.Args {
			classify(a, set)
		}
	case sqlparse.TextMatch:
		set[ClassText] = true
		classify(x.Query, set)
	default:
		// Unknown node kinds are conservatively unpushable.
		set[ClassExpr] = true
		set[ClassText] = true
	}
}

// Pushable reports whether a site with caps can evaluate e entirely.
func Pushable(e sqlparse.Expr, caps PushCaps) bool {
	if e == nil {
		return true
	}
	need := ClassifyExpr(e)
	for _, fc := range need {
		if fc == ClassText || !caps.HasClass(fc) {
			return false
		}
	}
	if caps.Columns != nil {
		for _, ref := range Columns(e) {
			if !caps.allowsColumn(ref.Column) {
				return false
			}
		}
	}
	return true
}

// SplitPushable divides a WHERE clause into the conjunction of terms a
// site with caps can evaluate (pushable) and the rest (residual).
// Either half may be nil. Filtering rows by pushable and then by
// residual keeps exactly the rows the original keeps.
func SplitPushable(e sqlparse.Expr, caps PushCaps) (pushable, residual sqlparse.Expr) {
	if e == nil {
		return nil, nil
	}
	if !caps.CanFilter() {
		return nil, e
	}
	var push, resid []sqlparse.Expr
	for _, term := range sqlparse.AndTerms(e) {
		if Pushable(term, caps) {
			push = append(push, term)
		} else {
			resid = append(resid, term)
		}
	}
	return sqlparse.AndJoin(push), sqlparse.AndJoin(resid)
}
