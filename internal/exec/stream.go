package exec

import (
	"context"
	"fmt"
	"strings"

	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// Streamable reports whether a SELECT can run on the true row-at-a-time
// path: a single-table statement with no grouping, aggregation,
// ordering or DISTINCT. Everything else needs the whole input (a sort
// buffer, a hash table, a dedupe set) and falls back to the
// materialized executor behind the same RowStream interface.
func Streamable(s sqlparse.SelectStmt) bool {
	if len(s.Joins) > 0 || len(s.GroupBy) > 0 || s.Having != nil ||
		len(s.OrderBy) > 0 || s.Distinct {
		return false
	}
	return !anyAggregate(s.Items, s.Having, s.OrderBy)
}

// SelectStream executes a SELECT as a pull-based row stream. Streamable
// statements run on the scan kernel (plan.TableScan) over the heap or an
// index access path — peak memory is one batch of surviving rows, LIMIT
// terminates the scan early, and a column the statement names that the
// table lacks fails the open, not the first row. Non-streamable
// statements run through the materialized executor and stream the
// finished result, so callers program against one interface. The stream
// honors ctx: cancellation surfaces from the next Next call. The caller
// must Close the returned stream.
func (db *Database) SelectStream(ctx context.Context, s sqlparse.SelectStmt) (storage.RowStream, error) {
	if !Streamable(s) {
		res, err := db.Select(s)
		if err != nil {
			return nil, err
		}
		_, stage := obs.StartStage(ctx, "scan", strings.ToLower(s.From.Name)+" (materialized)")
		return storage.InstrumentStream(storage.NewSliceStream(res.Columns, res.Rows), stage, storage.TimingSample), nil
	}
	alias := strings.ToLower(s.From.EffectiveName())
	t, err := db.Table(s.From.Name)
	if err != nil {
		return nil, err
	}
	items, err := expandStars(s.Items, sourceNames(alias, t))
	if err != nil {
		return nil, err
	}
	project := make([]sqlparse.Expr, len(items))
	for i, it := range items {
		project[i] = it.Expr
	}
	scan, err := plan.ScanStored(ctx, t, s.Where, plan.ScanSpec{
		Alias:   alias,
		Project: project,
		Columns: itemNames(items),
		Eval:    db.evaluator(map[string]*storage.Table{alias: t}),
		Offset:  s.Offset,
		Limit:   s.Limit,
	})
	if err != nil {
		return nil, err
	}
	// The scan stage is a leaf: nothing below it opens stages, so the
	// updated context stays local.
	_, stage := obs.StartStage(ctx, "scan", strings.ToLower(s.From.Name))
	return storage.InstrumentStream(scan, stage, storage.TimingSample), nil
}

// GroupStream folds the rows of one table that where keeps (bare
// column references; nil keeps every row) into the grouping's partial
// rows — one per group, one in all for a global aggregate — on the
// scan kernel over the table's best access path. No row is copied out
// of the table. The caller must Close the returned stream.
func (db *Database) GroupStream(ctx context.Context, table string, where sqlparse.Expr, g *plan.Grouping) (storage.RowStream, error) {
	t, err := db.Table(table)
	if err != nil {
		return nil, err
	}
	alias := strings.ToLower(table)
	scan, err := plan.ScanStored(ctx, t, where, plan.ScanSpec{
		Alias: alias,
		Group: g,
		Eval:  db.evaluator(map[string]*storage.Table{alias: t}),
		Limit: -1,
	})
	if err != nil {
		return nil, err
	}
	_, stage := obs.StartStage(ctx, "scan", alias+" (grouped)")
	return storage.InstrumentStream(scan, stage, storage.TimingSample), nil
}

// QueryStream parses and executes one SELECT statement as a stream.
func (db *Database) QueryStream(ctx context.Context, sql string) (storage.RowStream, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(sqlparse.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("exec: only SELECT streams, got %T", stmt)
	}
	return db.SelectStream(ctx, sel)
}
