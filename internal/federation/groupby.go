package federation

import (
	"strings"

	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/value"
)

// Aggregate pushdown. A decomposable GROUP BY over one table runs in two
// folds: every fragment folds its rows into one partial row per group
// (plan.Grouping) — at the site when the serving replica can group and
// applies the whole WHERE, in the fragment's pump otherwise — and the
// coordinator combines the partials by running the statement itself,
// rewritten over a keyless scratch table of partial rows. HAVING, ORDER
// BY, LIMIT and expressions over aggregates therefore go through the
// executor's own GROUP BY; only the aggregate calls change. See
// DESIGN.md §13.

// groupPlan is a statement's aggregate pushdown: the grouping every
// fragment folds to, the partial table's schema, and the statement that
// combines the partials.
type groupPlan struct {
	g       *plan.Grouping
	def     *schema.Table
	combine sqlparse.SelectStmt
}

// planGroup returns the aggregate pushdown of sel over gt's fragments,
// or nil when the statement or the layout keeps today's path: the
// coordinator gathers the rows and groups them itself.
func planGroup(sel sqlparse.SelectStmt, gt *GlobalTable, frags []*Fragment) *groupPlan {
	if len(sel.Joins) > 0 || sel.Distinct || !groupedSelect(sel) || hasTextMatch(sel) ||
		plan.ContainsAggregate(sel.Where) || !groupLayout(gt.Def, frags) {
		return nil
	}
	alias := lower(sel.From.EffectiveName())
	def := gt.Def
	// column resolves a reference to the table's column name; ok is
	// false for anything else (another qualifier, _rowid, no such column).
	column := func(ref sqlparse.ColumnRef) (string, bool) {
		if ref.Table != "" && lower(ref.Table) != alias {
			return "", false
		}
		ci := def.ColumnIndex(ref.Column)
		if ci < 0 {
			return "", false
		}
		return def.Columns[ci].Name, true
	}
	g := &plan.Grouping{}
	keys := make(map[string]bool)
	for _, e := range sel.GroupBy {
		ref, ok := e.(sqlparse.ColumnRef)
		if !ok {
			return nil
		}
		name, ok := column(ref)
		if !ok || keys[lower(name)] {
			return nil
		}
		keys[lower(name)] = true
		g.Keys = append(g.Keys, name)
	}
	// Collect the aggregate calls (the same call written twice, or once
	// qualified and once bare, folds once) and check every other column
	// reference names a group key.
	callAgg := make(map[string]int)
	ok := true
	visit := func(e sqlparse.Expr, aliases map[string]bool) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			switch n := x.(type) {
			case sqlparse.Call:
				if !plan.IsAggregateCall(n) {
					return true
				}
				call, valid := aggCall(n, column)
				if !valid {
					ok = false
					return false
				}
				idx := -1
				for i, have := range g.Aggs {
					if have == call {
						idx = i
					}
				}
				if idx < 0 {
					idx = len(g.Aggs)
					g.Aggs = append(g.Aggs, call)
				}
				callAgg[n.String()] = idx
				return false
			case sqlparse.ColumnRef:
				if n.Table == "" && aliases[lower(n.Column)] {
					return false
				}
				name, found := column(n)
				if !found || !keys[lower(name)] {
					ok = false
				}
			case sqlparse.Star, sqlparse.TextMatch:
				ok = false
			}
			return ok
		})
	}
	itemAliases := make(map[string]bool)
	for _, it := range sel.Items {
		visit(it.Expr, nil)
		if it.Alias != "" {
			itemAliases[lower(it.Alias)] = true
		}
	}
	visit(sel.Having, nil)
	for _, o := range sel.OrderBy {
		// The executor resolves an item alias only as a whole ORDER BY key.
		if _, bare := o.Expr.(sqlparse.ColumnRef); bare {
			visit(o.Expr, itemAliases)
		} else {
			visit(o.Expr, nil)
		}
	}
	if !ok || g.Validate() != nil {
		return nil
	}
	pdef, err := g.PartialTable(def)
	if err != nil {
		return nil
	}
	return &groupPlan{g: g, def: pdef, combine: combineStmt(sel, g, callAgg)}
}

// groupedSelect reports whether sel groups or aggregates at all.
func groupedSelect(sel sqlparse.SelectStmt) bool {
	if len(sel.GroupBy) > 0 || plan.ContainsAggregate(sel.Having) {
		return true
	}
	for _, it := range sel.Items {
		if plan.ContainsAggregate(it.Expr) {
			return true
		}
	}
	for _, o := range sel.OrderBy {
		if plan.ContainsAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// hasTextMatch reports whether any clause of sel holds a text predicate.
func hasTextMatch(sel sqlparse.SelectStmt) bool {
	found := false
	check := func(e sqlparse.Expr) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			if _, ok := x.(sqlparse.TextMatch); ok {
				found = true
			}
			return !found
		})
	}
	check(sel.Where)
	check(sel.Having)
	for _, it := range sel.Items {
		check(it.Expr)
	}
	for _, o := range sel.OrderBy {
		check(o.Expr)
	}
	return found
}

// aggCall maps one aggregate call onto its decomposable form: COUNT(*)
// or COUNT, SUM, MIN, MAX, AVG of one bare column of the table.
func aggCall(c sqlparse.Call, column func(sqlparse.ColumnRef) (string, bool)) (plan.AggCall, bool) {
	if c.Name == "COUNT" {
		if len(c.Args) == 0 {
			return plan.AggCall{Func: "COUNT"}, true
		}
		if _, star := c.Args[0].(sqlparse.Star); star && len(c.Args) == 1 {
			return plan.AggCall{Func: "COUNT"}, true
		}
	}
	if len(c.Args) != 1 {
		return plan.AggCall{}, false
	}
	ref, ok := c.Args[0].(sqlparse.ColumnRef)
	if !ok {
		return plan.AggCall{}, false
	}
	name, ok := column(ref)
	return plan.AggCall{Func: c.Name, Col: name}, ok
}

// groupLayout reports whether no key of the table can reach the combine
// twice: the fragment predicates are pairwise disjoint and read only
// primary-key columns (a lone fragment may have none), and no replica
// site hosts a second fragment of the table — a site stores one local
// table per global name, so it would fold both fragments' rows.
func groupLayout(def *schema.Table, frags []*Fragment) bool {
	if len(frags) == 0 {
		return false
	}
	key := make(map[string]bool, len(def.Key))
	for _, k := range def.Key {
		key[lower(k)] = true
	}
	hosts := make(map[*Site]bool)
	for i, frag := range frags {
		if frag.Predicate == nil {
			if len(frags) > 1 {
				return false
			}
		} else {
			for _, ref := range plan.Columns(frag.Predicate) {
				if !key[lower(ref.Column)] {
					return false
				}
			}
			for _, other := range frags[:i] {
				if !disjoint(frag.Predicate, other.Predicate) {
					return false
				}
			}
		}
		for _, s := range frag.Replicas() {
			if hosts[s] {
				return false
			}
			hosts[s] = true
		}
	}
	return true
}

// combineStmt rewrites sel over the partial table: every aggregate call
// becomes the fold of its partial columns — COUNT the sum of the counts
// (zero over no partials), SUM, MIN and MAX themselves, AVG its
// two-argument form over sum and count. WHERE is gone (the fragments
// applied it); GROUP BY, HAVING, ORDER BY, LIMIT and OFFSET stay, and
// every item keeps the output name it had.
func combineStmt(sel sqlparse.SelectStmt, g *plan.Grouping, callAgg map[string]int) sqlparse.SelectStmt {
	cols := g.Columns()
	slots := g.PartialSlots()
	ref := func(i int) sqlparse.Expr { return sqlparse.ColumnRef{Column: cols[i]} }
	rewrite := func(e sqlparse.Expr) sqlparse.Expr {
		return sqlparse.Rewrite(e, func(x sqlparse.Expr) sqlparse.Expr {
			c, ok := x.(sqlparse.Call)
			if !ok || !plan.IsAggregateCall(c) {
				return x
			}
			i := callAgg[c.String()]
			p := slots[i]
			switch g.Aggs[i].Func {
			case "COUNT":
				return sqlparse.Call{Name: "COALESCE", Args: []sqlparse.Expr{
					sqlparse.Call{Name: "SUM", Args: []sqlparse.Expr{ref(p)}},
					sqlparse.Literal{Value: value.NewInt(0)},
				}}
			case "AVG":
				return sqlparse.Call{Name: "AVG", Args: []sqlparse.Expr{ref(p), ref(p + 1)}}
			default:
				return sqlparse.Call{Name: c.Name, Args: []sqlparse.Expr{ref(p)}}
			}
		})
	}
	out := sqlparse.SelectStmt{
		From:    sel.From,
		GroupBy: sel.GroupBy,
		Having:  rewrite(sel.Having),
		Limit:   sel.Limit,
		Offset:  sel.Offset,
	}
	names := fedItemNames(sel.Items)
	for i, it := range sel.Items {
		out.Items = append(out.Items, sqlparse.SelectItem{Expr: rewrite(it.Expr), Alias: names[i]})
	}
	for _, o := range sel.OrderBy {
		out.OrderBy = append(out.OrderBy, sqlparse.OrderKey{Expr: rewrite(o.Expr), Desc: o.Desc})
	}
	return out
}

// groupSummary renders a grouping for EXPLAIN: "γ(category; COUNT(*))".
func groupSummary(g *plan.Grouping) string {
	aggs := make([]string, len(g.Aggs))
	for i, c := range g.Aggs {
		aggs[i] = c.String()
	}
	return "γ(" + strings.Join(g.Keys, ", ") + "; " + strings.Join(aggs, ", ") + ")"
}
