package plan

import (
	"strings"

	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Conjuncts splits a predicate on AND into its top-level conjuncts.
// A nil predicate yields nil.
func Conjuncts(e sqlparse.Expr) []sqlparse.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(sqlparse.Binary); ok && b.Op == sqlparse.OpAnd {
		return append(Conjuncts(b.Left), Conjuncts(b.Right)...)
	}
	return []sqlparse.Expr{e}
}

// AndExprs recombines conjuncts into a single predicate (nil when empty).
func AndExprs(cs []sqlparse.Expr) sqlparse.Expr {
	var out sqlparse.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = sqlparse.Binary{Op: sqlparse.OpAnd, Left: out, Right: c}
		}
	}
	return out
}

// Range is a one-column interval with optional open bounds (NULL value
// means unbounded on that side). Bounds are inclusive unless the
// corresponding Exclusive flag is set.
type Range struct {
	Column      string // lowercase bare column name
	Lo, Hi      value.Value
	LoExclusive bool
	HiExclusive bool
}

// Sargable extracts simple index-usable predicates of the forms
// col = lit, col < lit, col <= lit, col > lit, col >= lit and
// col BETWEEN lit AND lit from a single conjunct. The column may appear
// on either side of the comparison. It returns (range, true) on success.
// A NULL literal is not sargable: a Range reads a NULL bound as "open",
// while the comparison is true of no row.
func Sargable(e sqlparse.Expr) (Range, bool) {
	switch x := e.(type) {
	case sqlparse.Binary:
		col, lit, op, ok := colLit(x)
		if !ok || lit.IsNull() {
			return Range{}, false
		}
		r := Range{Column: strings.ToLower(col.Column)}
		switch op {
		case sqlparse.OpEq:
			r.Lo, r.Hi = lit, lit
		case sqlparse.OpLt:
			r.Hi, r.HiExclusive = lit, true
		case sqlparse.OpLe:
			r.Hi = lit
		case sqlparse.OpGt:
			r.Lo, r.LoExclusive = lit, true
		case sqlparse.OpGe:
			r.Lo = lit
		default:
			return Range{}, false
		}
		return r, true
	case sqlparse.Between:
		col, ok := x.Inner.(sqlparse.ColumnRef)
		if !ok || x.Negate {
			return Range{}, false
		}
		lo, okLo := x.Lo.(sqlparse.Literal)
		hi, okHi := x.Hi.(sqlparse.Literal)
		if !okLo || !okHi || lo.Value.IsNull() || hi.Value.IsNull() {
			return Range{}, false
		}
		return Range{
			Column: strings.ToLower(col.Column),
			Lo:     lo.Value, Hi: hi.Value,
		}, true
	default:
		return Range{}, false
	}
}

// colLit decomposes a comparison into (column, literal, normalized op),
// flipping the operator when the literal is on the left.
func colLit(b sqlparse.Binary) (sqlparse.ColumnRef, value.Value, sqlparse.BinaryOp, bool) {
	if c, ok := b.Left.(sqlparse.ColumnRef); ok {
		if l, ok := b.Right.(sqlparse.Literal); ok {
			return c, l.Value, b.Op, true
		}
	}
	if c, ok := b.Right.(sqlparse.ColumnRef); ok {
		if l, ok := b.Left.(sqlparse.Literal); ok {
			return c, l.Value, flipOp(b.Op), true
		}
	}
	return sqlparse.ColumnRef{}, value.Null, 0, false
}

func flipOp(op sqlparse.BinaryOp) sqlparse.BinaryOp {
	switch op {
	case sqlparse.OpLt:
		return sqlparse.OpGt
	case sqlparse.OpLe:
		return sqlparse.OpGe
	case sqlparse.OpGt:
		return sqlparse.OpLt
	case sqlparse.OpGe:
		return sqlparse.OpLe
	default:
		return op
	}
}

// Intersect narrows a to the values that also satisfy b, a range on the
// same column. ok is false, and a returned unchanged, when two bounds
// that had to be ordered are not comparable.
func (a Range) Intersect(b Range) (Range, bool) {
	out := a
	if !b.Lo.IsNull() {
		c := 1
		if !a.Lo.IsNull() {
			var err error
			if c, err = b.Lo.Compare(a.Lo); err != nil {
				return a, false
			}
		}
		if c > 0 || (c == 0 && b.LoExclusive) {
			out.Lo, out.LoExclusive = b.Lo, b.LoExclusive
		}
	}
	if !b.Hi.IsNull() {
		c := -1
		if !a.Hi.IsNull() {
			var err error
			if c, err = b.Hi.Compare(a.Hi); err != nil {
				return a, false
			}
		}
		if c < 0 || (c == 0 && b.HiExclusive) {
			out.Hi, out.HiExclusive = b.Hi, b.HiExclusive
		}
	}
	return out, true
}

// Empty reports whether no value can lie inside the range: its bounds
// cross, or meet with either end exclusive. Bounds that cannot be
// compared report false.
func (a Range) Empty() bool {
	if a.Lo.IsNull() || a.Hi.IsNull() {
		return false
	}
	c, err := a.Lo.Compare(a.Hi)
	return err == nil && (c > 0 || (c == 0 && (a.LoExclusive || a.HiExclusive)))
}

// Point reports whether the range admits exactly one value.
func (a Range) Point() bool {
	return !a.Lo.IsNull() && !a.LoExclusive && !a.HiExclusive && a.Lo.Equal(a.Hi)
}

// ColumnRanges folds the sargable conjuncts into one range per column,
// in order of first appearance: the intersection of every bound the
// predicate puts on it. A conjunct whose bounds cannot be ordered
// against the others is left out, which only widens the result.
func ColumnRanges(conjuncts []sqlparse.Expr) []Range {
	var out []Range
next:
	for _, c := range conjuncts {
		r, ok := Sargable(c)
		if !ok {
			continue
		}
		for i := range out {
			if out[i].Column == r.Column {
				out[i], _ = out[i].Intersect(r)
				continue next
			}
		}
		out = append(out, r)
	}
	return out
}

// Contains reports whether range a contains range b (every value
// satisfying b satisfies a). Used by the semantic cache to answer a new
// query from a cached superset result. Incomparable bounds report false.
func (a Range) Contains(b Range) bool {
	if a.Column != b.Column {
		return false
	}
	// Lower bound: a.Lo must be ≤ b.Lo (or a unbounded below).
	if !a.Lo.IsNull() {
		if b.Lo.IsNull() {
			return false
		}
		c, err := a.Lo.Compare(b.Lo)
		if err != nil || c > 0 {
			return false
		}
		if c == 0 && a.LoExclusive && !b.LoExclusive {
			return false
		}
	}
	if !a.Hi.IsNull() {
		if b.Hi.IsNull() {
			return false
		}
		c, err := a.Hi.Compare(b.Hi)
		if err != nil || c < 0 {
			return false
		}
		if c == 0 && a.HiExclusive && !b.HiExclusive {
			return false
		}
	}
	return true
}

// Satisfies reports whether the value lies inside the range.
func (a Range) Satisfies(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	if !a.Lo.IsNull() {
		c, err := v.Compare(a.Lo)
		if err != nil || c < 0 || (c == 0 && a.LoExclusive) {
			return false
		}
	}
	if !a.Hi.IsNull() {
		c, err := v.Compare(a.Hi)
		if err != nil || c > 0 || (c == 0 && a.HiExclusive) {
			return false
		}
	}
	return true
}

// SplitByTable partitions conjuncts into those referencing only the given
// table alias (pushdown candidates) and the rest. A conjunct with only
// unqualified references counts as local when localOnly is true (single
// table in scope).
func SplitByTable(conjuncts []sqlparse.Expr, alias string, localOnly bool) (local, rest []sqlparse.Expr) {
	alias = strings.ToLower(alias)
	for _, c := range conjuncts {
		belongs := true
		for _, col := range Columns(c) {
			q := strings.ToLower(col.Table)
			if q == "" {
				if !localOnly {
					belongs = false
					break
				}
				continue
			}
			if q != alias {
				belongs = false
				break
			}
		}
		if belongs {
			local = append(local, c)
		} else {
			rest = append(rest, c)
		}
	}
	return local, rest
}

// EquiJoinKeys extracts a.x = b.y pairs joining the two aliases from a
// join predicate's conjuncts. Returned as (leftCol, rightCol) pairs where
// leftCol belongs to leftAlias.
func EquiJoinKeys(on sqlparse.Expr, leftAlias, rightAlias string) (left, right []sqlparse.ColumnRef) {
	leftAlias = strings.ToLower(leftAlias)
	rightAlias = strings.ToLower(rightAlias)
	for _, c := range Conjuncts(on) {
		b, ok := c.(sqlparse.Binary)
		if !ok || b.Op != sqlparse.OpEq {
			continue
		}
		lc, lok := b.Left.(sqlparse.ColumnRef)
		rc, rok := b.Right.(sqlparse.ColumnRef)
		if !lok || !rok {
			continue
		}
		lq, rq := strings.ToLower(lc.Table), strings.ToLower(rc.Table)
		switch {
		case lq == leftAlias && rq == rightAlias:
			left = append(left, lc)
			right = append(right, rc)
		case lq == rightAlias && rq == leftAlias:
			left = append(left, rc)
			right = append(right, lc)
		}
	}
	return left, right
}

// EstimateSelectivity gives a coarse selectivity for a conjunct given the
// distinct count of its column (0 when unknown). The constants follow
// System R folklore.
func EstimateSelectivity(e sqlparse.Expr, distinct int) float64 {
	switch x := e.(type) {
	case sqlparse.Binary:
		switch x.Op {
		case sqlparse.OpEq:
			if distinct > 0 {
				return 1 / float64(distinct)
			}
			return 0.1
		case sqlparse.OpNe:
			return 0.9
		case sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe:
			return 0.3
		case sqlparse.OpAnd:
			return EstimateSelectivity(x.Left, distinct) * EstimateSelectivity(x.Right, distinct)
		case sqlparse.OpOr:
			a := EstimateSelectivity(x.Left, distinct)
			b := EstimateSelectivity(x.Right, distinct)
			return a + b - a*b
		}
	case sqlparse.Between:
		return 0.25
	case sqlparse.In:
		if distinct > 0 {
			s := float64(len(x.List)) / float64(distinct)
			if s > 1 {
				return 1
			}
			return s
		}
		return 0.2
	case sqlparse.Like:
		return 0.2
	case sqlparse.TextMatch:
		return 0.05
	case sqlparse.IsNull:
		return 0.05
	case sqlparse.Not:
		return 1 - EstimateSelectivity(x.Inner, distinct)
	}
	return 0.5
}
