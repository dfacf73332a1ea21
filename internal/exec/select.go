package exec

import (
	"fmt"
	"sort"
	"strings"

	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// binding is the intermediate row shape flowing through the executor:
// qualified column names (alias.col plus alias._rowid) and parallel rows.
type binding struct {
	names []string
	rows  []storage.Row
}

// env wraps a row in an environment. binding names are built lowercase,
// so no normalization pass is needed per row.
func (b *binding) env(row storage.Row) *plan.RowEnv {
	return plan.NewRowEnvRaw(b.names, row)
}

// Union executes a UNION chain: branches run independently (each with
// its own ORDER BY/LIMIT), results concatenate, and plain UNION
// deduplicates. Branch arities must match; column names come from the
// first branch.
func (db *Database) Union(u sqlparse.UnionStmt) (*Result, error) {
	if len(u.Selects) == 0 {
		return nil, fmt.Errorf("exec: empty UNION")
	}
	out := &Result{}
	for i, sel := range u.Selects {
		r, err := db.Select(sel)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			out.Columns = r.Columns
		} else if len(r.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("exec: UNION branch %d has %d columns, first has %d",
				i+1, len(r.Columns), len(out.Columns))
		}
		out.Rows = append(out.Rows, r.Rows...)
	}
	if !u.All {
		out.Rows = dedupeRows(out.Rows)
	}
	return out, nil
}

// Select executes a SELECT statement.
func (db *Database) Select(s sqlparse.SelectStmt) (*Result, error) {
	// Resolve tables.
	type src struct {
		alias string
		table *storage.Table
	}
	sources := []src{}
	baseTbl, err := db.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	sources = append(sources, src{strings.ToLower(s.From.EffectiveName()), baseTbl})
	for _, j := range s.Joins {
		t, err := db.Table(j.Table.Name)
		if err != nil {
			return nil, err
		}
		sources = append(sources, src{strings.ToLower(j.Table.EffectiveName()), t})
	}
	aliasTables := make(map[string]*storage.Table, len(sources))
	for _, sc := range sources {
		if _, dup := aliasTables[sc.alias]; dup {
			return nil, fmt.Errorf("exec: duplicate table alias %q", sc.alias)
		}
		aliasTables[sc.alias] = t2(sc.table)
	}
	ev := db.evaluator(aliasTables)

	// Partition WHERE conjuncts for pushdown.
	conjuncts := plan.Conjuncts(s.Where)
	singleTable := len(sources) == 1
	pushed := make(map[string][]sqlparse.Expr)
	var residualWhere []sqlparse.Expr
	pushable := make(map[string]bool, len(sources))
	pushable[sources[0].alias] = true
	for i, j := range s.Joins {
		if j.Kind == sqlparse.JoinInner {
			pushable[sources[i+1].alias] = true
		}
	}
	for _, c := range conjuncts {
		assigned := false
		for alias := range pushable {
			local, rest := plan.SplitByTable([]sqlparse.Expr{c}, alias, singleTable)
			if len(local) == 1 && len(rest) == 0 {
				pushed[alias] = append(pushed[alias], c)
				assigned = true
				break
			}
		}
		if !assigned {
			residualWhere = append(residualWhere, c)
		}
	}

	// Scan the base table with its pushed predicate.
	cur, err := db.scanSource(sources[0].alias, sources[0].table, plan.AndExprs(pushed[sources[0].alias]), ev)
	if err != nil {
		return nil, err
	}

	// Apply joins left to right.
	for i, j := range s.Joins {
		right := sources[i+1]
		var rightPred sqlparse.Expr
		if j.Kind == sqlparse.JoinInner {
			rightPred = plan.AndExprs(pushed[right.alias])
		}
		rb, err := db.scanSource(right.alias, right.table, rightPred, ev)
		if err != nil {
			return nil, err
		}
		cur, err = joinBindings(cur, rb, sources[0].alias, right.alias, j, ev)
		if err != nil {
			return nil, err
		}
	}

	// Residual WHERE.
	if len(residualWhere) > 0 {
		if err := checkRefs(cur.names, residualWhere...); err != nil {
			return nil, err
		}
		pred := plan.AndExprs(residualWhere)
		kept := cur.rows[:0]
		for _, row := range cur.rows {
			v, err := ev.Eval(pred, cur.env(row))
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				kept = append(kept, row)
			}
		}
		cur.rows = kept
	}

	// Expand * select items.
	items, err := expandStars(s.Items, cur.names)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if err := checkRefs(cur.names, it.Expr); err != nil {
			return nil, err
		}
	}

	grouped := len(s.GroupBy) > 0 || anyAggregate(items, s.Having, s.OrderBy)
	var out *Result
	if grouped {
		out, err = db.aggregate(cur, items, s, ev)
	} else {
		out, err = db.project(cur, items, s, ev)
	}
	if err != nil {
		return nil, err
	}

	if s.Distinct {
		out.Rows = dedupeRows(out.Rows)
	}
	applyLimit(out, s.Limit, s.Offset)
	return out, nil
}

// t2 is the identity on tables; it exists to keep the aliasTables literal
// readable above.
func t2(t *storage.Table) *storage.Table { return t }

// sourceNames lists the binding names of one table's rows: qualified
// column names plus a trailing alias._rowid.
func sourceNames(alias string, t *storage.Table) []string {
	return plan.NewScope(t.Def(), alias).Names
}

// scanSource produces the binding for one table: the rows its pushed
// predicate keeps, each with its row id appended, in id order.
func (db *Database) scanSource(alias string, t *storage.Table, pred sqlparse.Expr, ev *plan.Evaluator) (*binding, error) {
	var project []sqlparse.Expr
	for _, c := range append(t.Def().ColumnNames(), "_rowid") {
		project = append(project, sqlparse.ColumnRef{Column: c})
	}
	rows, err := db.scanAll(t, alias, pred, ev, project)
	if err != nil {
		return nil, err
	}
	return &binding{names: sourceNames(alias, t), rows: rows}, nil
}

// joinBindings joins two bindings. Equi-join keys found in the ON clause
// drive a hash join; any residual ON predicate is evaluated per matched
// pair. LEFT joins null-extend unmatched left rows.
func joinBindings(left, right *binding, leftAlias, rightAlias string, j sqlparse.Join, ev *plan.Evaluator) (*binding, error) {
	out := &binding{names: append(append([]string{}, left.names...), right.names...)}
	lk, rk := plan.EquiJoinKeys(j.On, leftAlias, rightAlias)
	// leftAlias here is the alias of the *first* source; keys may join any
	// earlier table to the new one, so fall back to: a key belongs to the
	// right side iff its qualifier matches rightAlias.
	if len(lk) == 0 {
		lk, rk = equiKeysAgainst(j.On, rightAlias)
	}
	rightWidth := len(right.names)
	if len(lk) > 0 {
		// Hash join.
		hash := make(map[string][]storage.Row, len(right.rows))
		for _, rr := range right.rows {
			key, ok, err := joinKey(rk, right, rr, ev)
			if err != nil {
				return nil, err
			}
			if ok {
				hash[key] = append(hash[key], rr)
			}
		}
		for _, lr := range left.rows {
			key, ok, err := joinKey(lk, left, lr, ev)
			matched := false
			if err != nil {
				return nil, err
			}
			if ok {
				for _, rr := range hash[key] {
					combined := append(append(storage.Row{}, lr...), rr...)
					pass, err := onResidual(j.On, out, combined, ev)
					if err != nil {
						return nil, err
					}
					if pass {
						matched = true
						out.rows = append(out.rows, combined)
					}
				}
			}
			if !matched && j.Kind == sqlparse.JoinLeft {
				out.rows = append(out.rows, nullExtend(lr, rightWidth))
			}
		}
		return out, nil
	}
	// Nested loop join.
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			combined := append(append(storage.Row{}, lr...), rr...)
			v, err := ev.Eval(j.On, out.env(combined))
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				matched = true
				out.rows = append(out.rows, combined)
			}
		}
		if !matched && j.Kind == sqlparse.JoinLeft {
			out.rows = append(out.rows, nullExtend(lr, rightWidth))
		}
	}
	return out, nil
}

// equiKeysAgainst extracts equi-join pairs where exactly one side is
// qualified with rightAlias; the other side may belong to any earlier
// table. Returns (otherSide, rightSide).
func equiKeysAgainst(on sqlparse.Expr, rightAlias string) (other, right []sqlparse.ColumnRef) {
	rightAlias = strings.ToLower(rightAlias)
	for _, c := range plan.Conjuncts(on) {
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
		case rq == rightAlias && lq != rightAlias:
			other = append(other, lc)
			right = append(right, rc)
		case lq == rightAlias && rq != rightAlias:
			other = append(other, rc)
			right = append(right, lc)
		}
	}
	return other, right
}

// joinKey encodes the key columns of a row; ok=false when any key is NULL
// (NULL never joins).
func joinKey(keys []sqlparse.ColumnRef, b *binding, row storage.Row, ev *plan.Evaluator) (string, bool, error) {
	buf := make([]byte, 0, 32)
	env := b.env(row)
	for _, k := range keys {
		v, err := env.Resolve(k)
		if err != nil {
			return "", false, err
		}
		if v.IsNull() {
			return "", false, nil
		}
		buf = value.AppendKey(buf, v)
		buf = append(buf, 0)
	}
	return string(buf), true, nil
}

// onResidual evaluates the non-equi part of the ON clause. Equi conjuncts
// already guaranteed by the hash are re-checked cheaply; correctness over
// micro-optimization.
func onResidual(on sqlparse.Expr, b *binding, row storage.Row, ev *plan.Evaluator) (bool, error) {
	if on == nil {
		return true, nil
	}
	v, err := ev.Eval(on, b.env(row))
	if err != nil {
		return false, err
	}
	return v.Truthy(), nil
}

func nullExtend(left storage.Row, rightWidth int) storage.Row {
	out := append(storage.Row{}, left...)
	for i := 0; i < rightWidth; i++ {
		out = append(out, value.Null)
	}
	return out
}

// expandStars replaces * and alias.* items with explicit column refs
// (skipping synthetic _rowid columns).
func expandStars(items []sqlparse.SelectItem, names []string) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(sqlparse.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		want := strings.ToLower(star.Table)
		matched := false
		for _, n := range names {
			dot := strings.LastIndexByte(n, '.')
			alias, col := n[:dot], n[dot+1:]
			if col == "_rowid" {
				continue
			}
			if want != "" && alias != want {
				continue
			}
			matched = true
			out = append(out, sqlparse.SelectItem{
				Expr:  sqlparse.ColumnRef{Table: alias, Column: col},
				Alias: col,
			})
		}
		if !matched {
			return nil, fmt.Errorf("exec: %s matches no columns", star)
		}
	}
	return out, nil
}

// checkRefs resolves every column reference in exprs against the
// binding names, so a reference that names no column fails the
// statement whether or not a row ever reaches it.
func checkRefs(names []string, exprs ...sqlparse.Expr) error {
	sc := plan.Scope{Names: names}
	var err error
	visit := func(x sqlparse.Expr) bool {
		switch c := x.(type) {
		case sqlparse.ColumnRef:
			_, err = sc.Slot(c)
		case sqlparse.TextMatch:
			_, err = sc.Slot(c.Col)
		}
		return err == nil
	}
	for _, e := range exprs {
		if plan.Walk(e, visit); err != nil {
			return err
		}
	}
	return nil
}

func anyAggregate(items []sqlparse.SelectItem, having sqlparse.Expr, order []sqlparse.OrderKey) bool {
	for _, it := range items {
		if plan.ContainsAggregate(it.Expr) {
			return true
		}
	}
	if having != nil && plan.ContainsAggregate(having) {
		return true
	}
	for _, o := range order {
		if plan.ContainsAggregate(o.Expr) {
			return true
		}
	}
	return false
}

// project evaluates select items per row (non-aggregate path), then
// applies ORDER BY over both output aliases and source columns.
func (db *Database) project(b *binding, items []sqlparse.SelectItem, s sqlparse.SelectStmt, ev *plan.Evaluator) (*Result, error) {
	res := &Result{Columns: itemNames(items)}
	type sortable struct {
		out storage.Row
		src storage.Row
	}
	var rows []sortable
	for _, row := range b.rows {
		env := b.env(row)
		out := make(storage.Row, len(items))
		for i, it := range items {
			v, err := ev.Eval(it.Expr, env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows = append(rows, sortable{out: out, src: row})
	}
	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			for _, key := range s.OrderBy {
				vi, err := db.orderValue(key.Expr, items, rows[i].out, b, rows[i].src, ev)
				if err != nil {
					sortErr = err
					return false
				}
				vj, err := db.orderValue(key.Expr, items, rows[j].out, b, rows[j].src, ev)
				if err != nil {
					sortErr = err
					return false
				}
				c, err := vi.Compare(vj)
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if key.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.out)
	}
	return res, nil
}

// orderValue resolves an ORDER BY key: an output alias first, then a
// source-row expression.
func (db *Database) orderValue(e sqlparse.Expr, items []sqlparse.SelectItem, out storage.Row, b *binding, src storage.Row, ev *plan.Evaluator) (value.Value, error) {
	if ref, ok := e.(sqlparse.ColumnRef); ok && ref.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ref.Column) {
				return out[i], nil
			}
		}
	}
	return ev.Eval(e, b.env(src))
}

func itemNames(items []sqlparse.SelectItem) []string {
	out := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			out[i] = it.Alias
		default:
			if c, ok := it.Expr.(sqlparse.ColumnRef); ok {
				out[i] = c.Column
			} else {
				out[i] = it.Expr.String()
			}
		}
	}
	return out
}

func dedupeRows(rows []storage.Row) []storage.Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	buf := make([]byte, 0, 64)
	for _, r := range rows {
		buf = value.AppendRowKey(buf[:0], r)
		k := string(buf)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func applyLimit(res *Result, limit, offset int) {
	if offset > 0 {
		if offset >= len(res.Rows) {
			res.Rows = nil
		} else {
			res.Rows = res.Rows[offset:]
		}
	}
	if limit >= 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
}
