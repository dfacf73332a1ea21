package plan

import (
	"fmt"
	"strings"

	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Bound is an expression compiled against a fixed row layout: every
// column reference was resolved to a slot when it was bound, so
// evaluating a row indexes the row instead of searching names. rowid is
// the identity of the row under evaluation; it is read only by
// expressions bound in a Scope that names a RowID.
//
// A Bound computes exactly what Evaluator.Eval computes for the same
// expression over the same values — both drive the same per-node
// helpers — and is safe to run under a table's scan latch: it never
// calls back into storage (text predicates are resolved to hit sets at
// bind time).
type Bound func(row []value.Value, rowid int64) (value.Value, error)

// Pred is a bound WHERE clause: whether the expression is truthy for the
// row (NULL is not, per SQL three-valued logic).
type Pred func(row []value.Value, rowid int64) (bool, error)

// Scope is the row layout expressions are bound against.
type Scope struct {
	// Names[i] names row[i]: lowercase, bare ("qty") or qualified
	// ("c.qty"). References resolve by RowEnv's rules.
	Names []string
	// RowID marks the last name ("_rowid", "c._rowid") as standing for
	// the row's identity instead of a stored slot.
	RowID bool
}

// NewScope builds the scope of one table's rows: its columns in order,
// qualified by alias when one is given, then the _rowid pseudo-column.
func NewScope(def *schema.Table, alias string) Scope {
	prefix := ""
	if alias != "" {
		prefix = strings.ToLower(alias) + "."
	}
	// One backing string for all the names: opening a scan is on the
	// path of every point query and every UPDATE.
	var b strings.Builder
	size := len(prefix) + len("_rowid")
	for _, c := range def.Columns {
		size += len(prefix) + len(c.Name)
	}
	b.Grow(size)
	for _, c := range def.Columns {
		b.WriteString(prefix)
		b.WriteString(strings.ToLower(c.Name))
	}
	b.WriteString(prefix)
	b.WriteString("_rowid")
	all, names := b.String(), make([]string, 0, len(def.Columns)+1)
	for _, c := range def.Columns {
		n := len(prefix) + len(c.Name)
		names, all = append(names, all[:n]), all[n:]
	}
	return Scope{Names: append(names, all), RowID: true}
}

// stored is the number of leading names that are row slots.
func (sc Scope) stored() int {
	if sc.RowID {
		return len(sc.Names) - 1
	}
	return len(sc.Names)
}

// Slot resolves a column reference to the row slot it names, by
// RowEnv's rules. In a scope with a RowID, the last slot is the row id.
func (sc Scope) Slot(ref sqlparse.ColumnRef) (int, error) {
	return resolveName(sc.Names, ref)
}

// Bind compiles e against the scope. Column references that do not
// resolve, and text predicates that cannot be resolved, fail here;
// errors that depend on the values (a type mismatch, a division by
// zero) or that Eval raises only when a node is reached (an aggregate
// or * in scalar position) still surface from the Bound, row by row,
// exactly as Eval would raise them.
func (ev *Evaluator) Bind(e sqlparse.Expr, sc Scope) (Bound, error) {
	n, err := ev.bind(e, sc)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value, rowid int64) (value.Value, error) {
		var tmp value.Value
		p, err := n.ref(row, rowid, &tmp)
		if err != nil {
			return value.Null, err
		}
		return *p, nil
	}, nil
}

// BindPred is Bind for a filter: Truthy of the value Bind's result would
// compute, without materializing it.
func (ev *Evaluator) BindPred(e sqlparse.Expr, sc Scope) (Pred, error) {
	n, err := ev.bind(e, sc)
	if err != nil {
		return nil, err
	}
	return func(row []value.Value, rowid int64) (bool, error) {
		t, err := n.test(row, rowid)
		return t == triTrue, err
	}, nil
}

// node is one bound subexpression, in the cheapest of three shapes. A
// leaf (stored column, literal) is data its parent reads in place; a
// predicate computes a truth value, which fits in a register; only a
// scalar operator (arithmetic, a function call, the row id) produces a
// Value, four words where a truth value is one byte — the predicate
// path copies none.
type node struct {
	pred func(row []value.Value, rowid int64) (tri, error)
	val  Bound
	slot int         // leaf, when >= 0: the row slot
	lit  value.Value // leaf otherwise
}

// ref returns the node's value for the row: a pointer into the row or
// the node for a leaf, and to *tmp, filled in, for an operator.
func (n *node) ref(row []value.Value, rowid int64, tmp *value.Value) (*value.Value, error) {
	switch {
	case n.pred != nil:
		t, err := n.pred(row, rowid)
		*tmp = t.value()
		return tmp, err
	case n.val != nil:
		var err error
		*tmp, err = n.val(row, rowid)
		return tmp, err
	case n.slot >= 0:
		return &row[n.slot], nil
	}
	return &n.lit, nil
}

// test returns the node's truth value for the row.
func (n *node) test(row []value.Value, rowid int64) (tri, error) {
	if n.pred != nil {
		return n.pred(row, rowid)
	}
	var tmp value.Value
	p, err := n.ref(row, rowid, &tmp)
	if err != nil {
		return triNull, err
	}
	return truth(p), nil
}

func (ev *Evaluator) bind(e sqlparse.Expr, sc Scope) (*node, error) {
	switch x := e.(type) {
	case sqlparse.Literal:
		return &node{slot: -1, lit: x.Value}, nil
	case sqlparse.ColumnRef:
		i, err := resolveName(sc.Names, x)
		if err != nil {
			return nil, err
		}
		if i == sc.stored() {
			return &node{val: func(_ []value.Value, rowid int64) (value.Value, error) { return value.NewInt(rowid), nil }}, nil
		}
		return &node{slot: i}, nil
	case sqlparse.Binary:
		l, r, err := ev.bind2(x.Left, x.Right, sc)
		if err != nil {
			return nil, err
		}
		op := x.Op
		switch {
		case isLogic(op):
			return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
				lt, err := l.test(row, rowid)
				if err != nil || decides(op, lt) {
					return lt, err
				}
				rt, err := r.test(row, rowid)
				return logic(op, lt, rt), err
			}}, nil
		case isComparison(op):
			if n := leafCompare(op, l, r); n != nil {
				return n, nil
			}
			return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
				var lt, rt value.Value
				lv, err := l.ref(row, rowid, &lt)
				if err != nil {
					return triNull, err
				}
				rv, err := r.ref(row, rowid, &rt)
				if err != nil {
					return triNull, err
				}
				return compare(op, lv, rv)
			}}, nil
		}
		return &node{val: func(row []value.Value, rowid int64) (value.Value, error) {
			var lt, rt value.Value
			lv, err := l.ref(row, rowid, &lt)
			if err != nil {
				return value.Null, err
			}
			rv, err := r.ref(row, rowid, &rt)
			if err != nil {
				return value.Null, err
			}
			return arith(op, *lv, *rv)
		}}, nil
	case sqlparse.Not:
		inner, err := ev.bind(x.Inner, sc)
		if err != nil {
			return nil, err
		}
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			t, err := inner.test(row, rowid)
			return not(t), err
		}}, nil
	case sqlparse.Neg:
		inner, err := ev.bind(x.Inner, sc)
		if err != nil {
			return nil, err
		}
		return &node{val: func(row []value.Value, rowid int64) (value.Value, error) {
			var tmp value.Value
			v, err := inner.ref(row, rowid, &tmp)
			if err != nil {
				return value.Null, err
			}
			return negValue(*v)
		}}, nil
	case sqlparse.IsNull:
		inner, err := ev.bind(x.Inner, sc)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			var tmp value.Value
			v, err := inner.ref(row, rowid, &tmp)
			if err != nil {
				return triNull, err
			}
			return triOf(v.IsNull() != negate), nil
		}}, nil
	case sqlparse.In:
		inner, err := ev.bind(x.Inner, sc)
		if err != nil {
			return nil, err
		}
		list, err := ev.bindAll(x.List, sc)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			var tmp value.Value
			v, err := inner.ref(row, rowid, &tmp)
			if err != nil {
				return triNull, err
			}
			return in(v, len(list), negate, func(i int) (value.Value, error) {
				var tmp value.Value
				iv, err := list[i].ref(row, rowid, &tmp)
				return *iv, err
			})
		}}, nil
	case sqlparse.Between:
		inner, err := ev.bind(x.Inner, sc)
		if err != nil {
			return nil, err
		}
		lo, hi, err := ev.bind2(x.Lo, x.Hi, sc)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		if n := leafBetween(inner, lo, hi, negate); n != nil {
			return n, nil
		}
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			var vt, lot, hit value.Value
			v, err := inner.ref(row, rowid, &vt)
			if err != nil {
				return triNull, err
			}
			lov, err := lo.ref(row, rowid, &lot)
			if err != nil {
				return triNull, err
			}
			hiv, err := hi.ref(row, rowid, &hit)
			if err != nil {
				return triNull, err
			}
			return between(v, lov, hiv, negate)
		}}, nil
	case sqlparse.Like:
		inner, pat, err := ev.bind2(x.Inner, x.Pattern, sc)
		if err != nil {
			return nil, err
		}
		negate := x.Negate
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			var vt, pt value.Value
			v, err := inner.ref(row, rowid, &vt)
			if err != nil {
				return triNull, err
			}
			p, err := pat.ref(row, rowid, &pt)
			if err != nil {
				return triNull, err
			}
			return like(v, p, negate)
		}}, nil
	case sqlparse.Call:
		args, err := ev.bindAll(x.Args, sc)
		if err != nil {
			return nil, err
		}
		name := x.Name
		return &node{val: func(row []value.Value, rowid int64) (value.Value, error) {
			return ev.callValues(name, len(args), func(i int) (value.Value, error) {
				var tmp value.Value
				v, err := args[i].ref(row, rowid, &tmp)
				return *v, err
			})
		}}, nil
	case sqlparse.TextMatch:
		hits, err := ev.textHits(x)
		if err != nil {
			return nil, err
		}
		var id *node
		for _, ref := range rowIDRefs(x) {
			if id, err = ev.bind(ref, sc); err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("plan: text predicate needs row identity: %w", err)
		}
		return &node{pred: func(row []value.Value, rowid int64) (tri, error) {
			var tmp value.Value
			idv, err := id.ref(row, rowid, &tmp)
			if err != nil {
				return triNull, err
			}
			return triOf(hits[idv.Int()]), nil
		}}, nil
	default:
		err := unsupportedExpr(e)
		return &node{val: func([]value.Value, int64) (value.Value, error) { return value.Null, err }}, nil
	}
}

// column reports whether n is a stored-column leaf.
func (n *node) column() bool { return n.pred == nil && n.val == nil && n.slot >= 0 }

// literal reports whether n is a literal leaf.
func (n *node) literal() bool { return n.pred == nil && n.val == nil && n.slot < 0 }

// Kind-bound leaves. A comparison of a stored column with an INT or
// STRING literal on its right, the shape of nearly every pushed
// predicate, is bound to the literal's kind: a cell of that kind
// compares in place (int64 or strings.Compare), and every other cell
// (NULL, another kind, a string that coerces, an error) goes through
// compare. A STRING BETWEEN with two literal bounds is bound the same
// way over between. The fast path is compare for one kind pair, so the
// two cannot disagree; FuzzBoundEval holds them to it. Every other
// shape and kind keeps the generic path.

// leafCompare binds `column op literal`, or returns nil for any other
// shape or literal kind.
func leafCompare(op sqlparse.BinaryOp, col, lit *node) *node {
	if !col.column() || !lit.literal() {
		return nil
	}
	// tab[c+1] is the comparison's truth when the cell compares c
	// against the literal.
	var tab [3]tri
	for c := -1; c <= 1; c++ {
		tab[c+1] = triOf(holds(op, c))
	}
	slot, x := col.slot, &lit.lit
	switch x.Kind() {
	case value.KindInt:
		n := x.Int()
		return &node{pred: func(row []value.Value, _ int64) (tri, error) {
			v := &row[slot]
			if v.Kind() != value.KindInt {
				return compare(op, v, x)
			}
			switch a := v.Int(); {
			case a < n:
				return tab[0], nil
			case a > n:
				return tab[2], nil
			}
			return tab[1], nil
		}}
	case value.KindString:
		str := x.Str()
		return &node{pred: func(row []value.Value, _ int64) (tri, error) {
			v := &row[slot]
			if v.Kind() != value.KindString {
				return compare(op, v, x)
			}
			return tab[strings.Compare(v.Str(), str)+1], nil
		}}
	}
	return nil
}

// leafBetween binds `column [NOT] BETWEEN literal AND literal` with
// two STRING bounds, or returns nil.
func leafBetween(inner, lo, hi *node, negate bool) *node {
	if !inner.column() || !lo.literal() || !hi.literal() ||
		lo.lit.Kind() != value.KindString || hi.lit.Kind() != value.KindString {
		return nil
	}
	slot, lov, hiv := inner.slot, &lo.lit, &hi.lit
	a, b := lov.Str(), hiv.Str()
	return &node{pred: func(row []value.Value, _ int64) (tri, error) {
		v := &row[slot]
		if v.Kind() != value.KindString {
			return between(v, lov, hiv, negate)
		}
		x := v.Str()
		return triOf((x >= a && x <= b) != negate), nil
	}}
}

func (ev *Evaluator) bind2(a, b sqlparse.Expr, sc Scope) (*node, *node, error) {
	an, err := ev.bind(a, sc)
	if err != nil {
		return nil, nil, err
	}
	bn, err := ev.bind(b, sc)
	return an, bn, err
}

func (ev *Evaluator) bindAll(es []sqlparse.Expr, sc Scope) ([]*node, error) {
	out := make([]*node, len(es))
	for i, e := range es {
		n, err := ev.bind(e, sc)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}
