package plan

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Decomposable aggregation. COUNT, SUM, MIN, MAX and AVG over a group
// can be computed in pieces: each site folds its own rows into one
// partial row per group, and the coordinator folds the partials. Agg is
// the one accumulator behind all three folds — the executor's GROUP BY
// over rows, a site's grouped scan, and the coordinator's combine — so
// the NULL, MONEY and empty-input rules exist once.
//
// A partial carries, per aggregate: COUNT its count; SUM, MIN and MAX
// their result over the site's rows (NULL when the site saw no
// non-NULL value); AVG two columns, the sum and the count. The combine
// folds them with SUM (counts and sums), MIN, MAX, and AVG's two-argument
// form AVG(sum, count), which averages the values whose partial sums
// and counts its arguments carry.

// Agg accumulates one aggregate function over one group. The zero value
// is unusable; start from NewAgg.
type Agg struct {
	name    string
	count   int64
	sumF    float64
	sumI    int64
	isFloat bool
	moneyC  string
	sumM    int64
	isMoney bool
	min     value.Value
	max     value.Value
}

// NewAgg starts an accumulator for the named aggregate (COUNT, SUM,
// AVG, MIN or MAX, uppercase).
func NewAgg(name string) Agg { return Agg{name: name} }

// Add folds one input value. SQL aggregates skip NULLs; COUNT(*) counts
// rows through AddRow instead.
func (a *Agg) Add(v value.Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	return a.fold(v)
}

// AddRow counts one input row, whatever its values: COUNT(*).
func (a *Agg) AddRow() { a.count++ }

// Merge folds one AVG partial: a sum over n non-NULL values (NULL when
// n is zero).
func (a *Agg) Merge(sum value.Value, n int64) error {
	a.count += n
	if sum.IsNull() {
		return nil
	}
	return a.fold(sum)
}

// fold adds a non-NULL value to the running sum or extremes.
func (a *Agg) fold(v value.Value) error {
	switch a.name {
	case "SUM", "AVG":
		switch v.Kind() {
		case value.KindInt:
			a.sumI += v.Int()
			a.sumF += float64(v.Int())
		case value.KindFloat:
			a.isFloat = true
			a.sumF += v.Float()
		case value.KindMoney:
			m, c := v.Money()
			if a.isMoney && a.moneyC != c {
				return fmt.Errorf("%w in %s: %s vs %s", value.ErrCurrencyMismatch, a.name, a.moneyC, c)
			}
			a.isMoney = true
			a.moneyC = c
			a.sumM += m
		default:
			return fmt.Errorf("plan: %s over %s", a.name, v.Kind())
		}
	case "MIN", "MAX":
		if a.min.IsNull() {
			a.min, a.max = v, v
			return nil
		}
		if c, err := v.Compare(a.min); err != nil {
			return err
		} else if c < 0 {
			a.min = v
		}
		if c, err := v.Compare(a.max); err != nil {
			return err
		} else if c > 0 {
			a.max = v
		}
	}
	return nil
}

// sum is the running sum in the kind the input had: NULL before any
// value, MONEY, FLOAT once a float was seen, INT otherwise.
func (a *Agg) sum() value.Value {
	switch {
	case a.count == 0:
		return value.Null
	case a.isMoney:
		return value.NewMoney(a.sumM, a.moneyC)
	case a.isFloat:
		return value.NewFloat(a.sumF)
	}
	return value.NewInt(a.sumI)
}

// Result is the aggregate's value over everything folded so far.
func (a *Agg) Result() (value.Value, error) {
	switch a.name {
	case "COUNT":
		return value.NewInt(a.count), nil
	case "SUM":
		return a.sum(), nil
	case "AVG":
		if a.count == 0 {
			return value.Null, nil
		}
		if a.isMoney {
			return value.NewMoney(a.sumM/a.count, a.moneyC), nil
		}
		return value.NewFloat(a.sumF / float64(a.count)), nil
	case "MIN":
		return a.min, nil
	case "MAX":
		return a.max, nil
	default:
		return value.Null, fmt.Errorf("plan: unknown aggregate %s", a.name)
	}
}

// appendPartial appends the accumulator's partial columns to dst.
func (a *Agg) appendPartial(dst []value.Value) ([]value.Value, error) {
	switch a.name {
	case "COUNT":
		return append(dst, value.NewInt(a.count)), nil
	case "AVG":
		return append(dst, a.sum(), value.NewInt(a.count)), nil
	}
	v, err := a.Result()
	return append(dst, v), err
}

// AggCall is one decomposable aggregate: Func (COUNT, SUM, MIN, MAX or
// AVG) over the bare column Col. Col is empty only for COUNT(*).
type AggCall struct {
	Func string
	Col  string
}

// String renders the call as SQL: "COUNT(*)", "SUM(qty)".
func (c AggCall) String() string {
	if c.Col == "" {
		return c.Func + "(*)"
	}
	return c.Func + "(" + c.Col + ")"
}

// width is the number of partial columns the call folds to.
func (c AggCall) width() int {
	if c.Func == "AVG" {
		return 2
	}
	return 1
}

// Grouping is a decomposable GROUP BY a site can fold: the bare group
// columns and the aggregates. No keys is a global aggregate, which
// folds to exactly one partial row even over no input.
type Grouping struct {
	Keys []string
	Aggs []AggCall
}

// Validate rejects a grouping no fold can run: an unknown function, a
// COUNT(*) form on another function, or a key named like a partial
// column.
func (g *Grouping) Validate() error {
	for _, c := range g.Aggs {
		switch c.Func {
		case "COUNT":
		case "SUM", "AVG", "MIN", "MAX":
			if c.Col == "" {
				return fmt.Errorf("plan: %s needs a column", c.Func)
			}
		default:
			return fmt.Errorf("plan: %q is not a decomposable aggregate", c.Func)
		}
	}
	cols := g.Columns()
	for _, k := range g.Keys {
		for _, p := range cols[len(g.Keys):] {
			if strings.EqualFold(k, p) {
				return fmt.Errorf("plan: group key %q collides with a partial column", k)
			}
		}
	}
	return nil
}

// Equal reports whether two groupings ask for the same fold.
func (g *Grouping) Equal(o *Grouping) bool {
	if g == nil || o == nil {
		return g == o
	}
	if len(g.Keys) != len(o.Keys) || len(g.Aggs) != len(o.Aggs) {
		return false
	}
	for i := range g.Keys {
		if !strings.EqualFold(g.Keys[i], o.Keys[i]) {
			return false
		}
	}
	for i := range g.Aggs {
		if g.Aggs[i].Func != o.Aggs[i].Func || !strings.EqualFold(g.Aggs[i].Col, o.Aggs[i].Col) {
			return false
		}
	}
	return true
}

// Columns names the partial row layout: the keys, then each
// aggregate's partial columns in order, named _p0, _p1, …
func (g *Grouping) Columns() []string {
	out := append([]string(nil), g.Keys...)
	n := 0
	for _, c := range g.Aggs {
		for j := 0; j < c.width(); j++ {
			out = append(out, "_p"+strconv.Itoa(n))
			n++
		}
	}
	return out
}

// PartialTable is the keyless schema of the partial rows of a table
// def, named like it: the group columns as def declares them, then the
// partial columns — counts INT, sums and extremes of their column's
// kind. Every column is nullable.
func (g *Grouping) PartialTable(def *schema.Table) (*schema.Table, error) {
	names := g.Columns()
	kind := func(col string) (value.Kind, error) {
		ci := def.ColumnIndex(col)
		if ci < 0 {
			return value.KindNull, fmt.Errorf("%w: %s", ErrUnknownColumn, col)
		}
		return def.Columns[ci].Kind, nil
	}
	cols := make([]schema.Column, 0, len(names))
	add := func(col string) error {
		k := value.KindInt
		if col != "" {
			var err error
			if k, err = kind(col); err != nil {
				return err
			}
		}
		cols = append(cols, schema.Column{Name: names[len(cols)], Kind: k})
		return nil
	}
	for _, k := range g.Keys {
		if err := add(k); err != nil {
			return nil, err
		}
	}
	for _, c := range g.Aggs {
		col := c.Col
		if c.Func == "COUNT" {
			col = ""
		}
		if err := add(col); err != nil {
			return nil, err
		}
		if c.Func == "AVG" {
			if err := add(""); err != nil {
				return nil, err
			}
		}
	}
	return schema.NewTable(def.Name, cols)
}

// PartialSlots returns, per aggregate, the index of its first partial
// column in the layout Columns names.
func (g *Grouping) PartialSlots() []int {
	out := make([]int, len(g.Aggs))
	at := len(g.Keys)
	for i, c := range g.Aggs {
		out[i] = at
		at += c.width()
	}
	return out
}

// GroupFold folds rows into one partial row per group, groups in order
// of first appearance. It reads each row in place and keeps only the
// values it accumulates, never the row, so the scan kernel can run it
// under a batch latch.
type GroupFold struct {
	g      *Grouping
	keys   []int // row slot per key
	args   []int // row slot per aggregate; -1 for COUNT(*)
	index  map[string]int
	groups []foldGroup
	buf    []byte
}

type foldGroup struct {
	keys []value.Value
	aggs []Agg
}

// NewGroupFold resolves the grouping's columns in scope. Unknown or
// ambiguous columns fail here, before any row is read.
func NewGroupFold(g *Grouping, sc Scope) (*GroupFold, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	f := &GroupFold{g: g, index: make(map[string]int),
		keys: make([]int, len(g.Keys)), args: make([]int, len(g.Aggs))}
	slot := func(col string) (int, error) {
		i, err := resolveName(sc.Names, sqlparse.ColumnRef{Column: col})
		if err == nil && i >= sc.stored() {
			err = fmt.Errorf("%w: %s", ErrUnknownColumn, col)
		}
		return i, err
	}
	var err error
	for i, k := range g.Keys {
		if f.keys[i], err = slot(k); err != nil {
			return nil, err
		}
	}
	for i, c := range g.Aggs {
		f.args[i] = -1
		if c.Col != "" {
			if f.args[i], err = slot(c.Col); err != nil {
				return nil, err
			}
		}
	}
	return f, nil
}

// Add folds one row.
func (f *GroupFold) Add(row []value.Value) error {
	f.buf = f.buf[:0]
	for _, k := range f.keys {
		f.buf = value.AppendKey(f.buf, row[k])
		f.buf = append(f.buf, 0)
	}
	gi, ok := f.index[string(f.buf)]
	if !ok {
		gi = len(f.groups)
		grp := foldGroup{keys: make([]value.Value, len(f.keys)), aggs: make([]Agg, len(f.args))}
		for i, k := range f.keys {
			grp.keys[i] = row[k]
		}
		for i, c := range f.g.Aggs {
			grp.aggs[i] = NewAgg(c.Func)
		}
		f.index[string(f.buf)] = gi
		f.groups = append(f.groups, grp)
	}
	aggs := f.groups[gi].aggs
	for i, a := range f.args {
		if a < 0 {
			aggs[i].AddRow()
			continue
		}
		if err := aggs[i].Add(row[a]); err != nil {
			return err
		}
	}
	return nil
}

// Rows emits the partial rows, one per group. A global aggregate with
// no input still emits one row: every count zero, everything else NULL.
func (f *GroupFold) Rows() ([]storage.Row, error) {
	if len(f.groups) == 0 && len(f.keys) == 0 {
		grp := foldGroup{aggs: make([]Agg, len(f.args))}
		for i, c := range f.g.Aggs {
			grp.aggs[i] = NewAgg(c.Func)
		}
		f.groups = append(f.groups, grp)
	}
	width := len(f.g.Columns())
	out := make([]storage.Row, len(f.groups))
	backing := make([]value.Value, 0, len(f.groups)*width)
	for i, grp := range f.groups {
		start := len(backing)
		backing = append(backing, grp.keys...)
		for j := range grp.aggs {
			var err error
			if backing, err = grp.aggs[j].appendPartial(backing); err != nil {
				return nil, err
			}
		}
		out[i] = backing[start:len(backing):len(backing)]
	}
	return out, nil
}

// FoldStream folds a row stream into partial rows: on the first Next it
// drains inner through a GroupFold, then emits one row per group. It is
// the grouped fold for rows that did not come from a table scan — a
// wrapper that cannot group, or rows a site shipped ungrouped.
type FoldStream struct {
	inner  storage.RowStream
	fold   *GroupFold
	cols   []string
	out    []storage.Row
	pos    int
	done   bool
	err    error
	closed bool
}

// NewFoldStream opens the fold over inner, resolving the grouping's
// columns against inner's column names. On error inner stays open.
func NewFoldStream(inner storage.RowStream, g *Grouping) (*FoldStream, error) {
	names := make([]string, len(inner.Columns()))
	for i, c := range inner.Columns() {
		names[i] = strings.ToLower(c)
	}
	fold, err := NewGroupFold(g, Scope{Names: names})
	if err != nil {
		return nil, err
	}
	return &FoldStream{inner: inner, fold: fold, cols: g.Columns()}, nil
}

// Columns implements storage.RowStream.
func (s *FoldStream) Columns() []string { return s.cols }

// Next implements storage.RowStream.
func (s *FoldStream) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	if !s.done {
		s.done = true
		for {
			row, err := s.inner.Next()
			if err == io.EOF {
				break
			}
			if err == nil {
				err = MarkEval(s.fold.Add(row))
			}
			if err != nil {
				s.err = err
				return nil, err
			}
		}
		if s.out, s.err = s.fold.Rows(); s.err != nil {
			s.err = MarkEval(s.err)
			return nil, s.err
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.pos < len(s.out) {
		r := s.out[s.pos]
		s.pos++
		return r, nil
	}
	return nil, io.EOF
}

// Close implements storage.RowStream.
func (s *FoldStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.out = nil
	return s.inner.Close()
}
