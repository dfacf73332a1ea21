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

// aggregate executes the grouped path: group rows by the GROUP BY keys,
// fold every aggregate call that appears in the select items, HAVING or
// ORDER BY, then evaluate those clauses with aggregate calls substituted
// by their folded values.
func (db *Database) aggregate(b *binding, items []sqlparse.SelectItem, s sqlparse.SelectStmt, ev *plan.Evaluator) (*Result, error) {
	// Collect distinct aggregate calls across all clauses.
	var aggCalls []sqlparse.Call
	seen := make(map[string]int)
	collect := func(e sqlparse.Expr) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			if c, ok := x.(sqlparse.Call); ok && plan.IsAggregateCall(c) {
				k := c.String()
				if _, dup := seen[k]; !dup {
					seen[k] = len(aggCalls)
					aggCalls = append(aggCalls, c)
				}
				return false
			}
			return true
		})
	}
	for _, it := range items {
		collect(it.Expr)
	}
	if s.Having != nil {
		collect(s.Having)
	}
	for _, o := range s.OrderBy {
		collect(o.Expr)
	}

	type group struct {
		keyVals  []value.Value
		firstEnv *plan.RowEnv
		states   []plan.Agg
	}
	groups := make(map[string]*group)
	var order []string
	for _, row := range b.rows {
		env := b.env(row)
		keyVals := make([]value.Value, len(s.GroupBy))
		kb := make([]byte, 0, 32)
		for i, g := range s.GroupBy {
			v, err := ev.Eval(g, env)
			if err != nil {
				return nil, err
			}
			keyVals[i] = v
			kb = value.AppendKey(kb, v)
			kb = append(kb, 0)
		}
		k := string(kb)
		grp, ok := groups[k]
		if !ok {
			grp = &group{keyVals: keyVals, firstEnv: env}
			for _, c := range aggCalls {
				grp.states = append(grp.states, plan.NewAgg(c.Name))
			}
			groups[k] = grp
			order = append(order, k)
		}
		for i, c := range aggCalls {
			st := &grp.states[i]
			if c.Name == "COUNT" {
				if len(c.Args) == 1 {
					if _, isStar := c.Args[0].(sqlparse.Star); isStar {
						st.AddRow()
						continue
					}
				} else if len(c.Args) == 0 {
					st.AddRow()
					continue
				}
			}
			if c.Name == "AVG" && len(c.Args) == 2 {
				// The combine form over partial rows: AVG(sum, count).
				if err := mergeAvg(st, ev, c, env); err != nil {
					return nil, err
				}
				continue
			}
			if len(c.Args) != 1 {
				return nil, fmt.Errorf("exec: %s expects one argument", c.Name)
			}
			v, err := ev.Eval(c.Args[0], env)
			if err != nil {
				return nil, err
			}
			if err := st.Add(v); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregate over an empty input still yields one row.
	if len(groups) == 0 && len(s.GroupBy) == 0 {
		grp := &group{firstEnv: plan.NewRowEnv(b.names, nullRow(len(b.names)))}
		for _, c := range aggCalls {
			grp.states = append(grp.states, plan.NewAgg(c.Name))
		}
		groups[""] = grp
		order = append(order, "")
	}

	res := &Result{Columns: itemNames(items)}
	type outRow struct {
		out  storage.Row
		keys map[string]value.Value // agg call string → folded value
		env  *plan.RowEnv
	}
	var rows []outRow
	for _, k := range order {
		grp := groups[k]
		folded := make(map[string]value.Value, len(aggCalls))
		for i, c := range aggCalls {
			v, err := grp.states[i].Result()
			if err != nil {
				return nil, err
			}
			folded[c.String()] = v
		}
		aggEv := &plan.Evaluator{Text: ev.Text, Funcs: map[string]func([]value.Value) (value.Value, error){}}
		env := grp.firstEnv
		// HAVING first.
		if s.Having != nil {
			v, err := aggEv.Eval(substituteAggregates(s.Having, folded), env)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		out := make(storage.Row, len(items))
		for i, it := range items {
			v, err := aggEv.Eval(substituteAggregates(it.Expr, folded), env)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		rows = append(rows, outRow{out: out, keys: folded, env: env})
	}
	// ORDER BY over aliases, aggregate results, or group keys.
	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			for _, key := range s.OrderBy {
				vi, err := aggOrderValue(key.Expr, items, rows[i], ev)
				if err != nil {
					sortErr = err
					return false
				}
				vj, err := aggOrderValue(key.Expr, items, rows[j], ev)
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

// mergeAvg folds one partial row into AVG's accumulator: the call's
// arguments evaluate to a partial sum and the count of values behind it.
func mergeAvg(st *plan.Agg, ev *plan.Evaluator, c sqlparse.Call, env *plan.RowEnv) error {
	sum, err := ev.Eval(c.Args[0], env)
	if err != nil {
		return err
	}
	n, err := ev.Eval(c.Args[1], env)
	if err != nil {
		return err
	}
	if n.Kind() != value.KindInt {
		return fmt.Errorf("exec: AVG partial count is %s, want INT", n.Kind())
	}
	return st.Merge(sum, n.Int())
}

func nullRow(n int) storage.Row {
	out := make(storage.Row, n)
	for i := range out {
		out[i] = value.Null
	}
	return out
}

func aggOrderValue(e sqlparse.Expr, items []sqlparse.SelectItem, r struct {
	out  storage.Row
	keys map[string]value.Value
	env  *plan.RowEnv
}, ev *plan.Evaluator) (value.Value, error) {
	if ref, ok := e.(sqlparse.ColumnRef); ok && ref.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ref.Column) {
				return r.out[i], nil
			}
		}
	}
	sub := substituteAggregates(e, r.keys)
	aggEv := &plan.Evaluator{Text: ev.Text}
	return aggEv.Eval(sub, r.env)
}

// substituteAggregates replaces aggregate calls in the expression by
// literal folded values.
func substituteAggregates(e sqlparse.Expr, folded map[string]value.Value) sqlparse.Expr {
	switch x := e.(type) {
	case sqlparse.Call:
		if plan.IsAggregateCall(x) {
			if v, ok := folded[x.String()]; ok {
				return sqlparse.Literal{Value: v}
			}
			return x
		}
		args := make([]sqlparse.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = substituteAggregates(a, folded)
		}
		return sqlparse.Call{Name: x.Name, Args: args}
	case sqlparse.Binary:
		return sqlparse.Binary{Op: x.Op,
			Left:  substituteAggregates(x.Left, folded),
			Right: substituteAggregates(x.Right, folded)}
	case sqlparse.Not:
		return sqlparse.Not{Inner: substituteAggregates(x.Inner, folded)}
	case sqlparse.Neg:
		return sqlparse.Neg{Inner: substituteAggregates(x.Inner, folded)}
	case sqlparse.IsNull:
		return sqlparse.IsNull{Inner: substituteAggregates(x.Inner, folded), Negate: x.Negate}
	case sqlparse.In:
		list := make([]sqlparse.Expr, len(x.List))
		for i, item := range x.List {
			list[i] = substituteAggregates(item, folded)
		}
		return sqlparse.In{Inner: substituteAggregates(x.Inner, folded), List: list, Negate: x.Negate}
	case sqlparse.Between:
		return sqlparse.Between{
			Inner:  substituteAggregates(x.Inner, folded),
			Lo:     substituteAggregates(x.Lo, folded),
			Hi:     substituteAggregates(x.Hi, folded),
			Negate: x.Negate,
		}
	case sqlparse.Like:
		return sqlparse.Like{
			Inner:   substituteAggregates(x.Inner, folded),
			Pattern: substituteAggregates(x.Pattern, folded),
			Negate:  x.Negate,
		}
	default:
		return e
	}
}
