package wrapper

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// Pushdown is the σ/π/limit/γ request a caller hands OpenPushStream.
// OpenPushStream sends a source only what its Capabilities().Push
// advertises and evaluates the rest itself; a push-capable source's
// Applied receipt reports what it actually did.
type Pushdown struct {
	// Where is the pushed predicate, with bare (unqualified) column
	// refs resolving against the source schema. nil pushes no filter.
	Where sqlparse.Expr
	// Cols is the projected column subset in output order. nil ships
	// full-width rows.
	Cols []string
	// Limit caps delivered rows; <= 0 means no limit.
	Limit int
	// Group, when set, asks for the rows Where keeps folded into the
	// grouping's partial rows (plan.Grouping) instead of the rows
	// themselves. A grouped request carries no Cols and no Limit.
	Group *plan.Grouping
}

// Applied is a source's receipt for a Pushdown: which parts of the
// request the delivered stream already reflects. The zero value means
// "nothing applied" — OpenPushStream re-filters, re-projects, and
// re-limits, as it does for a source that is not push-capable.
type Applied struct {
	// Where: rows are pre-filtered by the pushed predicate.
	Where bool
	// Cols: rows contain exactly the requested columns, in order.
	Cols bool
	// Limit: at most the requested number of rows will be delivered.
	Limit bool
	// Group: rows are the requested grouping's partial rows, folded
	// over the rows the pushed predicate keeps (so Where holds too).
	Group bool
}

// PushStreamingSource is the optional push-capable streaming face of a
// connector. Implementations may apply any subset of the request (the
// receipt says which); they must never apply a different predicate or
// column set than asked.
type PushStreamingSource interface {
	Source
	// FetchPushStream retrieves rows as a stream with the pushed
	// σ/π/limit applied as far as the source is able. filters are
	// further conjuncts of the pushed WHERE (see Filter).
	FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error)
}

// OpenPushStream opens a stream from src that reflects all of push: the
// rows push.Where keeps, projected to push.Cols and cut at push.Limit,
// or folded into push.Group's partial rows. It is the one place that
// decides what a source evaluates and who evaluates the rest. The
// source is sent the conjuncts of push.Where its Capabilities().Push
// can filter and, only when that is the whole predicate, the
// projection, limit and grouping it advertises; the equality conjuncts
// left over on its PushdownEq columns travel as Filters, which cut the
// transfer of a source that cannot take a pushed WHERE. Whatever its
// receipt disclaims is fused (plan.FuseStream) or folded
// (plan.NewFoldStream) over its rows here. Errors of that evaluation,
// and a projection or grouping the rows cannot answer, wrap
// plan.ErrEval; anything else is the source's own failure. The caller
// owns the returned stream.
func OpenPushStream(ctx context.Context, src Source, push Pushdown) (storage.RowStream, error) {
	caps := src.Capabilities()
	where, resid := plan.SplitPushable(push.Where, caps.Push)
	// A projection, limit or grouping is only safe at the source when it
	// applies the entire filter: the first N rows of a partially filtered
	// stream are not the first N of the filtered one, and the residual
	// may read columns a projection drops.
	req := Pushdown{Where: where}
	if resid == nil {
		if caps.Push.Project {
			req.Cols = push.Cols
		}
		if caps.Push.Limit {
			req.Limit = push.Limit
		}
		if caps.Push.Group {
			req.Group = push.Group
		}
	}
	st, applied, err := openSource(ctx, src, eqFilters(resid, caps), req)
	if err != nil {
		return nil, err
	}
	if push.Group != nil && applied.Group {
		return st, nil
	}
	spec := plan.FuseSpec{Where: push.Where, Limit: -1}
	if applied.Where {
		spec.Where = resid
	}
	if push.Cols != nil && !applied.Cols {
		if spec.Project, err = columnIndexes(st.Columns(), push.Cols); err != nil {
			//lint:ignore errdrop the open is failing; close is best-effort cleanup
			_ = st.Close()
			return nil, plan.MarkEval(fmt.Errorf("wrapper: %s: %w", src.Name(), err))
		}
	}
	if push.Limit > 0 && !applied.Limit {
		spec.Limit = push.Limit
	}
	if spec.Where != nil || spec.Project != nil || spec.Limit >= 0 {
		st = plan.FuseStream(st, spec)
	}
	if push.Group == nil {
		return st, nil
	}
	fold, err := plan.NewFoldStream(st, push.Group)
	if err != nil {
		//lint:ignore errdrop the open is failing; close is best-effort cleanup
		_ = st.Close()
		return nil, plan.MarkEval(fmt.Errorf("wrapper: %s: %w", src.Name(), err))
	}
	return fold, nil
}

// eqFilters returns the conjuncts of e that are column = literal on a
// column caps.PushdownEq names, as Filters.
func eqFilters(e sqlparse.Expr, caps Capabilities) []Filter {
	var out []Filter
	for _, c := range plan.Conjuncts(e) {
		r, ok := plan.Sargable(c)
		if ok && !r.Lo.IsNull() && r.Lo.Equal(r.Hi) && !r.LoExclusive && !r.HiExclusive && caps.CanPush(r.Column) {
			out = append(out, Filter{Column: r.Column, Value: r.Lo})
		}
	}
	return out
}

// openSource opens src with filters and exactly req: natively when the
// source is push-capable, else fetched with the filters and wrapped as
// a stream with an all-false receipt.
func openSource(ctx context.Context, src Source, filters []Filter, req Pushdown) (storage.RowStream, Applied, error) {
	if ps, ok := src.(PushStreamingSource); ok {
		return ps.FetchPushStream(ctx, filters, req)
	}
	rows, err := src.Fetch(ctx, filters)
	if err != nil {
		return nil, Applied{}, err
	}
	return storage.NewSliceStream(src.Schema().ColumnNames(), rows), Applied{}, nil
}

// columnIndexes resolves the projected column names against a
// stream's columns, case-insensitively.
func columnIndexes(have, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = slices.IndexFunc(have, func(h string) bool { return strings.EqualFold(h, w) })
		if idx[i] < 0 {
			return nil, fmt.Errorf("projection column %q not in the delivered rows", w)
		}
	}
	return idx, nil
}

// FetchPushStream implements PushStreamingSource: the gateway stands in
// for a full remote engine, so the pushed predicate, projection, limit
// and grouping all run inside its scan — a row failing the pushed WHERE
// is never copied, let alone shipped, and a grouped request copies no
// row at all. The filters are ANDed into the WHERE (AndFilters), and
// the scan reads through the index access path that predicate allows
// (plan.ScanStored), exactly as the local engine reads a stored table.
// A pushed column the table lacks fails the open.
func (s *ERPSource) FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	s.mu.Lock()
	s.fetches++
	latency := s.latency
	s.mu.Unlock()
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-ctx.Done():
			return nil, Applied{}, ctx.Err()
		}
	}
	where := AndFilters(s.table.Def(), push.Where, filters)
	spec := plan.ScanSpec{Columns: push.Cols, Limit: -1, Group: push.Group}
	for _, c := range push.Cols {
		spec.Project = append(spec.Project, sqlparse.ColumnRef{Column: c})
	}
	if push.Limit > 0 {
		spec.Limit = push.Limit
	}
	scan, err := plan.ScanStored(ctx, s.table, where, spec)
	if err != nil {
		return nil, Applied{}, fmt.Errorf("wrapper: erp %s: %w", s.name, err)
	}
	if push.Group != nil {
		return scan, Applied{Where: push.Where != nil, Group: true}, nil
	}
	return scan, Applied{Where: push.Where != nil, Cols: push.Cols != nil, Limit: push.Limit > 0}, nil
}

// FetchPushStream implements PushStreamingSource for the instrumented
// decorator: the underlying source's push support (or lack of it) shows
// through, so Instrument never silently downgrades a push-capable
// source. It opens the underlying stream (native or adapted) and counts
// the rows the source delivers, before OpenPushStream evaluates
// anything the receipt disclaims.
func (s *instrumented) FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "wrapper.fetchstream")
	sp.Set("source", s.Source.Name())
	table := s.Source.Schema().Name
	ctx, stage := obs.StartStage(ctx, "wrapper.fetch", table)
	start := time.Now()
	st, applied, err := openSource(ctx, s.Source, filters, push)
	if err != nil {
		metFetchSeconds.Observe(time.Since(start))
		metFetches(table, "error").Inc()
		stage.Fail(err)
		sp.SetErr(err)
		sp.End()
		return nil, Applied{}, err
	}
	metFetches(table, "ok").Inc()
	return &countedStream{RowStream: storage.InstrumentStream(st, stage, storage.TimingSample),
		sp: sp, stage: stage, start: start}, applied, nil
}
