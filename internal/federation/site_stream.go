package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// SubQueryStream executes a single-table selection at the site,
// SELECT <cols> FROM table WHERE <where> with where referencing only
// bare column names (cols nil means all columns), and returns its rows
// through a pull-based stream. It is the one unit of work the federated
// executor ships to sites. Stored tables run the local engine's
// streaming executor; wrapper-fronted tables stream from the source
// (over the wire, when the source is remote) with site-side filtering
// and projection applied row by row. limit caps delivered rows (< 0 means
// unlimited) and is pushed into the scan when the source can stop
// early. The site completes everything it is given: whatever a wrapper
// source cannot evaluate, wrapper.OpenPushStream evaluates here, before
// the rows leave the site. The admission gate, breaker accounting and
// cost model's round-trip latency are charged at open; the site's
// latency histogram observes open→Close wall clock.
func (s *Site) SubQueryStream(ctx context.Context, table string, where sqlparse.Expr, cols []string, limit int) (storage.RowStream, error) {
	return s.subquery(ctx, table, where, cols, limit, nil)
}

// GroupStream executes a single-table grouped subquery at the site: the
// rows of table that where keeps, folded into g's partial rows (see
// plan.Grouping). Stored tables fold on the scan kernel; a wrapper
// source that can group folds at the source (over the wire, for remote
// sources), and any other source's rows are folded right here
// (wrapper.OpenPushStream), so the stream always carries partial rows.
// Accounting is as for SubQueryStream.
func (s *Site) GroupStream(ctx context.Context, table string, where sqlparse.Expr, g *plan.Grouping) (storage.RowStream, error) {
	return s.subquery(ctx, table, where, nil, -1, g)
}

// subquery is SubQueryStream, grouped when g is set.
func (s *Site) subquery(ctx context.Context, table string, where sqlparse.Expr, cols []string, limit int, g *plan.Grouping) (storage.RowStream, error) {
	if err := s.CheckAvailable(ctx); err != nil {
		return nil, err
	}
	s.inFlight.Add(1)
	s.served.Add(1)
	ctx, sp := obs.StartSpan(ctx, "site.subquerystream")
	sp.Set("site", s.name)
	sp.Set("table", table)
	start := time.Now()

	if g != nil {
		sp.Set("grouped", "true")
	}
	var st storage.RowStream
	var err error
	switch src := s.source(table); {
	case src != nil:
		st, err = s.streamSource(ctx, src, where, cols, limit, g)
	case g != nil:
		st, err = s.db.GroupStream(ctx, table, where, g)
	default:
		st, err = s.streamStored(ctx, table, where, cols, limit)
	}
	if err == nil {
		// Charge the round-trip latency up front. CostModel.PerRow only
		// prices bids (EstimateCost, central.go): a stream's row count
		// is unknown at open.
		err = s.simulateCost(ctx)
	}
	if err != nil {
		if st != nil {
			//lint:ignore errdrop the open already failed; close is best-effort cleanup
			_ = st.Close()
		}
		s.inFlight.Add(-1)
		s.ObserveLatency(time.Since(start))
		if errors.Is(err, ErrSiteFailure) && ctx.Err() == nil {
			s.breaker.RecordFailure()
		}
		sp.SetErr(err)
		sp.End()
		return nil, err
	}
	// Breaker accounting waits for Close: a stream that opens fine can
	// still die mid-transfer, and that failure must move the breaker
	// just like a failed open.
	return &siteStream{inner: st, site: s, ctx: ctx, sp: sp, start: start}, nil
}

// streamStored answers a subquery from the site's local engine.
func (s *Site) streamStored(ctx context.Context, table string, where sqlparse.Expr, cols []string, limit int) (storage.RowStream, error) {
	items := []sqlparse.SelectItem{{Expr: sqlparse.Star{}}}
	if cols != nil {
		items = items[:0]
		for _, c := range cols {
			items = append(items, sqlparse.SelectItem{Expr: sqlparse.ColumnRef{Column: c}, Alias: c})
		}
	}
	if limit < 0 {
		limit = -1
	}
	stmt := sqlparse.SelectStmt{
		Items: items,
		From:  sqlparse.TableRef{Name: table},
		Where: where,
		Limit: limit,
	}
	return s.db.SelectStream(ctx, stmt)
}

// streamSource answers a subquery from a wrapper source through
// wrapper.OpenPushStream, which sends the connector what it can
// evaluate (over the wire, for remote sources) and evaluates the rest
// right here, one row at a time, before the stream leaves the site.
func (s *Site) streamSource(ctx context.Context, src wrapper.Source, where sqlparse.Expr, cols []string, limit int, g *plan.Grouping) (storage.RowStream, error) {
	if limit == 0 {
		if cols == nil {
			cols = src.Schema().ColumnNames()
		}
		return storage.NewSliceStream(cols, nil), nil
	}
	st, err := wrapper.OpenPushStream(ctx, src, wrapper.Pushdown{Where: where, Cols: cols, Limit: limit, Group: g})
	if err != nil {
		return nil, classify(src.Name(), err)
	}
	return &classifyStream{inner: st, src: src.Name()}, nil
}

// classify maps a source's failure to ErrSiteFailure, the fragment
// pump's failover signal. An evaluation error (plan.ErrEval) is the
// query's fault wherever it was raised — at this site, at the source,
// or at a remote peer — so it stays a plain query error: failing over
// would only meet it again, and it must not count against the site's
// breaker.
func classify(src string, err error) error {
	if errors.Is(err, plan.ErrEval) {
		return err
	}
	return fmt.Errorf("%w: source %s: %w", ErrSiteFailure, src, err)
}

// classifyStream classifies a source stream's mid-transfer failures
// (see classify).
type classifyStream struct {
	inner  storage.RowStream
	src    string
	closed bool
}

// Columns implements storage.RowStream.
func (s *classifyStream) Columns() []string { return s.inner.Columns() }

// Next implements storage.RowStream.
func (s *classifyStream) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	r, err := s.inner.Next()
	if err == nil || err == io.EOF || errors.Is(err, storage.ErrStreamClosed) {
		return r, err
	}
	return nil, classify(s.src, err)
}

// Close implements storage.RowStream.
func (s *classifyStream) Close() error {
	s.closed = true
	return s.inner.Close()
}

// siteStream settles the site's in-flight count, latency observation,
// breaker accounting and span when the subquery stream closes.
type siteStream struct {
	inner   storage.RowStream
	site    *Site
	ctx     context.Context
	sp      *obs.Span
	start   time.Time
	err     error // terminal stream error, for breaker accounting
	settled bool
}

// Columns implements storage.RowStream.
func (s *siteStream) Columns() []string { return s.inner.Columns() }

// Next implements storage.RowStream. The terminal error (anything but
// a clean EOF or use-after-Close) is remembered so Close can charge it
// to the site's circuit breaker.
func (s *siteStream) Next() (storage.Row, error) {
	r, err := s.inner.Next()
	if err != nil && err != io.EOF && !errors.Is(err, storage.ErrStreamClosed) {
		s.err = err
	}
	return r, err
}

// Close implements storage.RowStream. Idempotent. A stream that died
// mid-transfer on a transient site failure records a breaker failure —
// unless the caller's context ended, since caller aborts must not trip
// breakers — and everything else records the success the open earned.
func (s *siteStream) Close() error {
	err := s.inner.Close()
	if !s.settled {
		s.settled = true
		s.site.inFlight.Add(-1)
		s.site.ObserveLatency(time.Since(s.start))
		if s.err != nil && errors.Is(s.err, ErrSiteFailure) && s.ctx.Err() == nil {
			s.site.breaker.RecordFailure()
			s.sp.SetErr(s.err)
		} else {
			s.site.breaker.RecordSuccess()
		}
		s.sp.End()
	}
	return err
}
