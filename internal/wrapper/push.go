package wrapper

import (
	"context"
	"fmt"
	"time"

	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
)

// Pushdown is the capability-negotiated σ/π/limit/γ request a caller hands
// a push-capable source alongside the legacy equality filters. The
// caller must only push what the source's Capabilities().Push
// advertises; the Applied receipt reports what the source actually did,
// and the caller evaluates whatever was not applied.
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

// Empty reports whether the request asks for nothing.
func (p Pushdown) Empty() bool {
	return p.Where == nil && p.Cols == nil && p.Limit <= 0 && p.Group == nil
}

// Applied is a source's receipt for a Pushdown: which parts of the
// request the delivered stream already reflects. The zero value means
// "nothing applied" — the caller re-filters, re-projects, and re-limits,
// which is exactly the old-server / non-push-capable fallback.
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
	// σ/π/limit applied as far as the source is able.
	FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error)
}

// OpenPushStream opens a stream from src with push applied when the
// source supports it. Any other source is fetched whole and its rows
// wrapped as a stream, with an all-false receipt. The caller owns the
// returned stream and the residual evaluation of anything the receipt
// disclaims.
func OpenPushStream(ctx context.Context, src Source, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	if ps, ok := src.(PushStreamingSource); ok {
		return ps.FetchPushStream(ctx, filters, push)
	}
	rows, err := src.Fetch(ctx, filters)
	if err != nil {
		return nil, Applied{}, err
	}
	return storage.NewSliceStream(src.Schema().ColumnNames(), rows), Applied{}, nil
}

// FetchPushStream implements PushStreamingSource: the gateway stands in
// for a full remote engine, so the pushed predicate, projection, limit
// and grouping all run inside its scan (plan.TableScan) — a row failing
// the pushed WHERE is never copied, let alone shipped, and a grouped
// request copies no row at all. A pushed column the
// table lacks fails the open. The first pushable equality filter picks
// the rows through an index when its column has one; every filter is
// then checked per row, as in Fetch.
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
	def := s.table.Def()
	var cur *storage.Cursor
	caps := s.Capabilities()
	for _, f := range filters {
		if !caps.CanPush(f.Column) {
			continue
		}
		if s.table.HasIndex(f.Column) {
			ids, err := s.table.LookupEqual(f.Column, f.Value)
			if err != nil {
				return nil, Applied{}, fmt.Errorf("wrapper: erp %s: %w", s.name, err)
			}
			cur = s.table.CursorOver(ids)
		}
		break
	}
	if cur == nil {
		cur = s.table.Cursor()
	}
	spec := plan.ScanSpec{Where: push.Where, Columns: push.Cols, Limit: -1}
	if len(filters) > 0 {
		spec.Keep = func(r storage.Row) bool { return matchesFilters(def, r, filters) }
	}
	for _, c := range push.Cols {
		spec.Project = append(spec.Project, sqlparse.ColumnRef{Column: c})
	}
	if push.Limit > 0 {
		spec.Limit = push.Limit
	}
	spec.Group = push.Group
	scan, err := plan.ScanTable(ctx, cur, spec)
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
// rows as they flow.
func (s *instrumented) FetchPushStream(ctx context.Context, filters []Filter, push Pushdown) (storage.RowStream, Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "wrapper.fetchstream")
	sp.Set("source", s.Source.Name())
	table := s.Source.Schema().Name
	ctx, stage := obs.StartStage(ctx, "wrapper.fetch", table)
	start := time.Now()
	st, applied, err := OpenPushStream(ctx, s.Source, filters, push)
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
