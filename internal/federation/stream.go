package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// The streaming scatter-gather. One producer goroutine per live
// fragment pulls its site's subquery stream and ships pooled row
// batches over a bounded channel; a single consumer (the caller's
// goroutine, inside RowStream.Next) merges them. The channel holds at
// most one batch per fragment, so coordinator memory is
// O(batchRows × fragments) regardless of result size, and a consumer
// that stops reading (LIMIT reached, Close) back-pressures every
// producer through the blocked send.

// fragMsg is one message from a fragment producer: either a batch of
// rows or the fragment's completion record (done=true), which is
// always the producer's last message.
type fragMsg struct {
	frag   *Fragment
	batch  *storage.Batch
	done   bool
	site   *Site // serving site (done messages of successful fragments)
	rows   int   // rows delivered to the fan-in, post-residual (done messages)
	pushed int   // rows the site shipped, pre-residual (done messages)
	width  int   // columns per shipped row (done messages)
	fail   int   // replicas tried and found down (done messages)
	stale  bool  // serving site had journaled intents pending (done messages)
	err    error // fragment failure (done messages)

	// held is a held fragment's rows (successful done messages): a
	// grouped fragment's partial rows, or every row of a fragment under
	// PartialResults. See pumpFragment.
	held []storage.Row
}

// streamCounters tracks rows resident in the fan-in channel, and the
// high-water mark the bench harness reports.
type streamCounters struct {
	inflight atomic.Int64
	peak     atomic.Int64
}

func (c *streamCounters) add(n int64) {
	v := c.inflight.Add(n)
	for {
		p := c.peak.Load()
		if v <= p || c.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// scatter fans one scan's fragment subqueries out to producer
// goroutines and returns the fan-in channel. The channel is closed
// after every producer has sent its done message. canReplay permits
// mid-stream failover to the next replica — sound only when the
// consumer dedupes by primary key, since the replacement replica
// replays rows the failed stream already shipped.
func (f *Federation) scatter(ctx context.Context, sc *tableScan, limit int, canReplay bool,
	counters *streamCounters) (ch <-chan fragMsg, active, pruned int) {
	var frags []*Fragment
	for _, frag := range sc.frags {
		if frag.Predicate != nil && sc.push != nil && disjoint(frag.Predicate, sc.push) {
			pruned++
			continue
		}
		frags = append(frags, frag)
	}
	out := make(chan fragMsg, len(frags))
	turn := make(chan struct{}, 1) // see pumpStream
	var wg sync.WaitGroup
	for _, frag := range frags {
		wg.Add(1)
		go func(frag *Fragment) {
			defer wg.Done()
			f.pumpFragment(ctx, sc, frag, limit, canReplay, counters, out, turn)
		}(frag)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out, len(frags), pruned
}

// pumpFragment streams one fragment from its best available replica
// into the fan-in channel, failing over across replicas, and finishes
// with exactly one done message. Per replica, the fragment predicate is
// split against that site's advertised capabilities: the pushable part
// travels with the subquery, the residual (plus projection and limit
// when the site declined them) is fused here, before the rows enter
// the fan-in — so every fragment contributes uniformly filtered,
// uniformly projected rows no matter how capable its serving site was.
// limit, when ≥ 0, caps each site's scan at OFFSET+LIMIT rows; it is
// only pushed to a site that applies the entire predicate, since the
// first K rows of a partially filtered stream are not the first K of
// the filtered one.
//
// A held fragment sends no batches: the pump keeps its rows and sends
// them only in its success record, so a failover throws the dead
// replica's rows away and asks again, and a fragment that fails sends
// none. Grouped fragments are held — a replica that advertises grouping
// and applies the whole predicate returns the partial rows itself, any
// other ships its rows and the pump folds them with the same kernel —
// and under PartialResults every fragment is, so a degraded result
// holds only whole fragments, at the cost of one fragment's rows of
// coordinator memory per pump.
func (f *Federation) pumpFragment(ctx context.Context, sc *tableScan, frag *Fragment, limit int, canReplay bool,
	counters *streamCounters, out chan<- fragMsg, turn chan struct{}) {
	gt, group := sc.gt, (*plan.Grouping)(nil)
	if sc.group != nil {
		group = sc.group.g
	}
	hold := group != nil || f.PartialResults
	gctx, gsp := obs.StartSpan(ctx, "federation.gatherstream")
	gsp.Set("table", gt.Def.Name)
	gsp.Set("fragment", frag.ID)
	defer gsp.End()
	gctx, fstage := obs.StartStage(gctx, "fragment", gt.Def.Name+"/"+frag.ID)

	send := func(m fragMsg) bool {
		m.frag = frag
		// Count the batch as resident before offering it: a batch parked
		// in a blocked send is coordinator memory just like one sitting
		// in the channel.
		if m.batch != nil {
			counters.add(int64(len(m.batch.Rows)))
		}
		// A blocked send is this fragment waiting on the consumer; batch
		// sends are measured exactly (per batch, not per row).
		var sendStart time.Time
		if fstage != nil && m.batch != nil {
			sendStart = time.Now()
		}
		select {
		case out <- m:
			if !sendStart.IsZero() {
				fstage.BlockedDownstream(time.Since(sendStart))
			}
			return true
		case <-gctx.Done():
			if m.batch != nil {
				counters.add(-int64(len(m.batch.Rows)))
				storage.PutBatch(m.batch)
			}
			return false
		}
	}
	finish := func(m fragMsg) {
		m.done = true
		if m.err != nil {
			gsp.SetErr(m.err)
			fstage.Fail(m.err)
		} else if m.site != nil {
			gsp.Set("site", m.site.Name())
			gsp.Set("rows", strconv.Itoa(m.rows))
			gsp.Set("failovers", strconv.Itoa(m.fail))
			fstage.SetDetail(gt.Def.Name + "/" + frag.ID + "@" + m.site.Name())
		}
		fstage.Done()
		gsp.SetStage(fstage)
		send(m)
	}
	var held []storage.Row
	keep := func(m fragMsg) bool {
		held = append(held, m.batch.Rows...)
		storage.PutBatch(m.batch)
		return true
	}

	ranked := f.optimizer().Rank(gctx, frag, estimateRows(frag, gt.Def.Name))
	if len(ranked) == 0 {
		// An auction can close empty (bid timeout shorter than the
		// slowest bidder, or a stale snapshot). The query must still
		// run: fall back to trying every replica in order.
		ranked = frag.Replicas()
	}
	fails := 0
	var lastErr error
	for _, site := range ranked {
		// Capability split, re-done per replica: a failover can land on a
		// site with different capabilities than the one that just died.
		sitePush, siteResid := sc.push, sqlparse.Expr(nil)
		siteCols, siteLimit := sc.cols, -1
		siteGroup := false
		if f.DisablePredicatePushdown {
			sitePush, siteResid = nil, sc.push
		} else {
			caps := site.PushCaps()
			sitePush, siteResid = plan.SplitPushable(sc.push, caps)
			if !caps.Project {
				siteCols = nil
			}
			if limit >= 0 && caps.Limit && siteResid == nil {
				siteLimit = limit
			}
			siteGroup = group != nil && caps.Group && siteResid == nil
		}
		var st storage.RowStream
		var err error
		if siteGroup {
			st, err = site.GroupStream(gctx, gt.Def.Name, sitePush, group)
		} else {
			st, err = site.SubQueryStream(gctx, gt.Def.Name, sitePush, siteCols, siteLimit)
		}
		if err != nil {
			if cutByConsumer(gctx) {
				fstage.Cut()
				return
			}
			// Availability failures — declared outages, an open breaker,
			// transient faults — fail over to the next replica; anything
			// else (semantic) aborts the fragment.
			if isAvailabilityErr(err) && gctx.Err() == nil {
				fails++
				lastErr = err
				continue
			}
			finish(fragMsg{err: err})
			return
		}
		// The residual stage sits between the site stream and the fan-in,
		// so fstage (and with it EXPLAIN ANALYZE's per-fragment rows)
		// counts what the fragment contributes to the merge, while the
		// fuse's RowsIn keeps what the site shipped for the trace's
		// pushed-vs-residual accounting.
		siteWidth := len(st.Columns())
		var fuse *plan.FusedStream
		if !siteGroup && (siteResid != nil || (sc.cols != nil && siteCols == nil)) {
			spec := plan.FuseSpec{Where: siteResid, Limit: -1}
			if sc.cols != nil && siteCols == nil {
				idx, perr := projectIdx(st.Columns(), sc.cols)
				if perr != nil {
					//lint:ignore errdrop the open already failed; close is best-effort cleanup
					_ = st.Close()
					finish(fragMsg{err: perr})
					return
				}
				spec.Project = idx
			}
			//lint:ignore streamclose fuse aliases st, which pumpStream and the failover cleanup close
			fuse = plan.FuseStream(st, spec)
			st = fuse
		}
		var shipped, pushedRows int
		var pumpErr error
		held = nil
		if group != nil {
			held, pushedRows, shipped, pumpErr = foldFragment(st, fuse, group, siteGroup, fstage)
		} else {
			emit := send
			if hold {
				emit = keep
			}
			shipped, pumpErr = pumpStream(gctx, st, fstage, clampFedBatch(f.StreamBatchRows), emit, turn)
			pushedRows = shipped
			if fuse != nil {
				pushedRows = int(fuse.RowsIn())
			}
		}
		if pumpErr == nil {
			finish(fragMsg{site: site, rows: shipped, pushed: pushedRows, width: siteWidth,
				fail: fails, stale: frag.PendingAt(site) > 0, held: held})
			return
		}
		if gctx.Err() != nil {
			// The consumer went away (LIMIT, Close); not a failure —
			// unless an operator killed the query, in which case the
			// cancellation the wrapper recorded stays on the stage.
			if cutByConsumer(gctx) {
				fstage.Cut()
			}
			return
		}
		// A stream that broke mid-flight may have shipped a prefix. A held
		// fragment shipped nothing, and with primary-key dedupe downstream
		// the next replica's full replay is absorbed, so availability
		// failures keep failing over; otherwise a replay would duplicate
		// rows, so the fragment fails.
		if (hold || canReplay) && isAvailabilityErr(pumpErr) {
			fails++
			lastErr = pumpErr
			continue
		}
		finish(fragMsg{err: pumpErr})
		return
	}
	if lastErr != nil {
		finish(fragMsg{err: fmt.Errorf("%w: fragment %s of %s: %w", ErrNoReplica, frag.ID, gt.Def.Name, lastErr)})
	} else {
		finish(fragMsg{err: fmt.Errorf("%w: fragment %s of %s", ErrNoReplica, frag.ID, gt.Def.Name)})
	}
}

// foldFragment drains one replica's grouped subquery: the partial rows
// the site folded (folded set), or the rows it shipped, folded here. It
// returns the partials, the rows that crossed the site boundary, and
// how many of those passed the pump's residual (fuse, when set); the
// stage counts the partial rows, the fragment's contribution to the
// combine.
func foldFragment(st storage.RowStream, fuse *plan.FusedStream, g *plan.Grouping, folded bool,
	stage *obs.StageStats) (partials []storage.Row, pushed, kept int, err error) {
	var fold *plan.FoldStream
	if !folded {
		if fold, err = plan.NewFoldStream(st, g); err != nil {
			//lint:ignore errdrop the fold failed to open; close is best-effort cleanup
			_ = st.Close()
			return nil, 0, 0, err
		}
		st = fold
	}
	partials, err = storage.CollectRows(storage.InstrumentStream(st, stage, storage.TimingSample))
	switch {
	case err != nil:
		return nil, 0, 0, err
	case folded:
		return partials, len(partials), len(partials), nil
	case fuse != nil:
		return partials, int(fuse.RowsIn()), int(fuse.RowsOut()), nil
	}
	return partials, int(fold.RowsIn()), int(fold.RowsIn()), nil
}

// projectIdx resolves the projected column names against a shipped
// stream's column list, case-insensitively.
func projectIdx(have, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = -1
		for j, h := range have {
			if strings.EqualFold(h, w) {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("federation: shipped stream has no column %q", w)
		}
	}
	return idx, nil
}

// cutByConsumer reports whether ctx ended because the stream's own
// consumer cut the producers off — LIMIT satisfied, an early Close, or
// the caller abandoning the query — rather than an operator kill.
// Operator cancels through the query registry carry
// obs.ErrQueryCanceled as the cancel cause; internal cuts leave the
// plain context.Canceled.
func cutByConsumer(ctx context.Context) bool {
	return ctx.Err() != nil && !errors.Is(context.Cause(ctx), obs.ErrQueryCanceled)
}

// pumpStream drains one site stream into the fan-in channel in pooled
// batches, returning the rows shipped and the stream's terminal error
// (nil on clean EOF). stage, when non-nil, accounts the rows pulled
// off the site stream (a failover replay pumps again into the same
// stage, so its row count is "rows shipped", not distinct rows).
//
// A pump fills a batch only while it holds turn, which the query's
// pumps share, so one of them decodes at a time. The merge takes one
// batch at a time; decoding several fragments at once buys a wide
// query little and takes every processor from the queries running
// beside it (DESIGN §10: "One decoding pump per query").
func pumpStream(ctx context.Context, st storage.RowStream, stage *obs.StageStats, batchRows int,
	send func(fragMsg) bool, turn chan struct{}) (int, error) {
	// Closing the wrapper closes st and settles the stage; with a nil
	// stage InstrumentStream returns st itself.
	src := storage.InstrumentStream(st, stage, storage.TimingSample)
	defer src.Close()
	held := false
	release := func() {
		if held {
			<-turn
			held = false
		}
	}
	defer release()
	shipped := 0
	batch := storage.GetBatch()
	flush := func() bool {
		release()
		if len(batch.Rows) == 0 {
			return true
		}
		shipped += len(batch.Rows)
		if !send(fragMsg{batch: batch}) {
			batch = nil
			return false
		}
		batch = storage.GetBatch()
		return true
	}
	for {
		if !held {
			select {
			case turn <- struct{}{}:
				held = true
			case <-ctx.Done():
				storage.PutBatch(batch)
				return shipped, ctx.Err()
			}
		}
		row, err := src.Next()
		if err == io.EOF {
			if !flush() {
				return shipped, ctx.Err()
			}
			storage.PutBatch(batch)
			return shipped, nil
		}
		if err != nil {
			storage.PutBatch(batch)
			return shipped, err
		}
		batch.Rows = append(batch.Rows, row)
		if len(batch.Rows) >= batchRows && !flush() {
			return shipped, ctx.Err()
		}
	}
}

// clampFedBatch resolves the federation's rows-per-batch setting.
func clampFedBatch(n int) int {
	if n <= 0 {
		return storage.DefaultBatchRows
	}
	return n
}

// StreamableSelect reports whether a federated SELECT can run on the
// incremental merge path: single table, no joins/grouping/aggregation/
// ordering/DISTINCT (exec.Streamable) and no text predicates, which
// need the coordinator's inverted index over gathered rows.
func StreamableSelect(sel sqlparse.SelectStmt) bool {
	return exec.Streamable(sel) && !hasTextMatch(sel)
}

// QueryStream parses and executes one federated SELECT as a row
// stream. See SelectStream for the contract.
func (f *Federation) QueryStream(ctx context.Context, sql string) (storage.RowStream, *QueryTrace, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	sel, ok := stmt.(sqlparse.SelectStmt)
	if !ok {
		return nil, nil, fmt.Errorf("federation: only SELECT streams, got %T", stmt)
	}
	return f.SelectStream(ctx, sel)
}

// SelectStream executes a federated SELECT as a pull-based row stream.
// Streamable statements merge the fragment streams incrementally:
// rows flow from sites through pooled batches and a bounded channel,
// so coordinator memory is O(batch × fragments) instead of O(total
// rows), and LIMIT cancels the remaining producers as soon as it is
// satisfied. Non-streamable statements (joins, aggregates, ORDER BY,
// text search) run through Select and stream the finished result. The
// caller must Close the stream; the returned trace's fields settle once
// the stream ends (EOF, error, or Close).
func (f *Federation) SelectStream(ctx context.Context, sel sqlparse.SelectStmt) (storage.RowStream, *QueryTrace, error) {
	ctx, release, err := f.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !StreamableSelect(sel) {
		// The coordinator work is done when Select returns, so the slot
		// is released here; the returned stream is a pure in-memory
		// replay.
		defer release()
		res, trace, err := f.Select(ctx, sel)
		if err != nil {
			return nil, nil, err
		}
		return storage.NewSliceStream(res.Columns, res.Rows), trace, nil
	}
	st, trace, err := f.openSelect(ctx, sel, "federation.selectstream")
	if err != nil {
		release()
		return nil, nil, err
	}
	// The admission slot rides the stream: it frees when the caller
	// drains or closes it, so a slow consumer exerts backpressure at
	// the gate (new work queues or sheds) instead of inflating buffers.
	return admission.NewTrackedStream(st, release), trace, nil
}

// openSelect starts a streamable SELECT's run under a span named span
// and returns its merge stream, which settles the run when it ends.
func (f *Federation) openSelect(ctx context.Context, sel sqlparse.SelectStmt, span string) (*fedStream, *QueryTrace, error) {
	ctx, run := f.startSelect(ctx, sel, span)
	p, err := f.planSelect(sel)
	if err != nil {
		run.settle(0, err, nil)
		return nil, nil, err
	}
	sc := &p.scans[0]

	// The consumer side is two stages: "filter/limit" (projection,
	// OFFSET/LIMIT — the rows the caller actually sees) over "merge"
	// (the fan-in: every row shipped by every fragment). Both ride the
	// context so the fragment pumps parent under the merge.
	limitDetail := lower(sel.From.Name)
	if sel.Limit >= 0 {
		limitDetail += " limit " + strconv.Itoa(sel.Limit)
	}
	if sel.Offset > 0 {
		limitDetail += " offset " + strconv.Itoa(sel.Offset)
	}
	ctx, limitStage := obs.StartStage(ctx, "filter/limit", limitDetail)
	s := f.newMerge(ctx, sc, run.trace)
	s.run, s.limitStage = run, limitStage

	// The merge is compiled before any fragment is asked, so a
	// reference that does not bind fails the same way whether the table
	// is full, empty or pruned away: from the first Next, as FuseStream
	// reports one.
	items, err := expandFedStars(sel.Items, sc.alias, sc.def)
	if err == nil {
		s.proj, err = compileMerge(sel.Where, items, sc.alias, sc.def)
	}
	if err != nil {
		s.fail(err)
		return s, run.trace, nil
	}
	s.cols, s.skip = fedItemNames(items), sel.Offset
	// Each fragment may hold the whole answer, so a per-site limit must
	// cover OFFSET+LIMIT rows; the PK dedupe and this stream's own
	// offset/limit do the rest.
	fragLimit := -1
	if sel.Limit >= 0 {
		fragLimit = sel.Limit + sel.Offset
		s.remain = sel.Limit
	}
	s.start(sc, fragLimit)
	return s, run.trace, nil
}

// compileMerge binds a streamable SELECT to the shipped row layout def,
// whose columns the statement names as alias.col or bare. Every shipped
// row already passed its fragment's pushed predicate or its pump's
// fused residual, so the merge checks no WHERE: binding it only makes a
// bad reference fail here, row or no row. (SplitByTable keeps back
// only conjuncts that name another qualifier, and no such conjunct
// binds in a single-table scope.) The select items become the merge's
// projection.
func compileMerge(where sqlparse.Expr, items []sqlparse.SelectItem, alias string, def *schema.Table) (projection, error) {
	sc := plan.Scope{Names: make([]string, len(def.Columns))}
	for i, c := range def.Columns {
		sc.Names[i] = alias + "." + lower(c.Name)
	}
	var ev plan.Evaluator
	if where != nil {
		if _, err := ev.BindPred(where, sc); err != nil {
			return projection{}, err
		}
	}
	p := projection{slots: make([]int, len(items)), ident: len(items) == len(sc.Names)}
	for i, it := range items {
		if ref, ok := it.Expr.(sqlparse.ColumnRef); ok {
			slot, err := sc.Slot(ref)
			if err != nil {
				return projection{}, err
			}
			p.slots[i] = slot
			p.ident = p.ident && slot == i
			continue
		}
		bound, err := ev.Bind(it.Expr, sc)
		if err != nil {
			return projection{}, err
		}
		if p.exprs == nil {
			p.exprs = make([]plan.Bound, len(items))
		}
		p.slots[i], p.exprs[i], p.ident = -1, bound, false
	}
	return p, nil
}

// projection is the merge's select list compiled against the shipped
// row layout: a plain column ref is a slot to copy, anything else a
// bound expression.
type projection struct {
	slots []int        // per output column: the shipped slot it copies, or -1
	exprs []plan.Bound // per output column whose slot is -1
	ident bool         // the output row is the shipped row itself
}

// apply projects rows in place and returns how many it projected: all
// of them, unless an item failed on the row after the last. An identity
// projection hands the shipped rows on uncopied (a stream's rows are
// its caller's, and the merge is the pump's caller). Otherwise the
// batch's output rows are cut from one backing array, each capped at
// its width so a caller's append copies the row instead of writing into
// its neighbour.
func (p *projection) apply(rows []storage.Row) (int, error) {
	if p.ident {
		return len(rows), nil
	}
	w := len(p.slots)
	backing := make([]value.Value, len(rows)*w)
	for i, r := range rows {
		out := backing[i*w : (i+1)*w : (i+1)*w]
		for j, slot := range p.slots {
			if slot >= 0 {
				out[j] = r[slot]
				continue
			}
			v, err := p.exprs[j](r, 0)
			if err != nil {
				return i, err
			}
			out[j] = v
		}
		rows[i] = out
	}
	return len(rows), nil
}

// expandFedStars expands * / alias.* select items against the shipped
// schema, mirroring the executor's expansion so the merge and the
// scratch database name columns identically.
func expandFedStars(items []sqlparse.SelectItem, alias string, def *schema.Table) ([]sqlparse.SelectItem, error) {
	var out []sqlparse.SelectItem
	for _, it := range items {
		star, ok := it.Expr.(sqlparse.Star)
		if !ok {
			out = append(out, it)
			continue
		}
		want := lower(star.Table)
		if want != "" && want != alias {
			return nil, fmt.Errorf("federation: %s matches no columns", star)
		}
		for _, c := range def.Columns {
			col := lower(c.Name)
			out = append(out, sqlparse.SelectItem{
				Expr:  sqlparse.ColumnRef{Table: alias, Column: col},
				Alias: col,
			})
		}
	}
	return out, nil
}

// fedItemNames mirrors the executor's output-column naming.
func fedItemNames(items []sqlparse.SelectItem) []string {
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

// fedStream is the coordinator side of the streaming scatter-gather:
// the single consumer of a scan's fan-in channel, for a streamable
// SELECT and for each table Select loads into its scratch database
// alike. It trusts the pushdown split — every row arriving passed its
// fragment's pushed predicate or its pump's fused residual, so no WHERE
// is checked here — dedupes by primary key (first copy wins), projects
// the select items through the projection compiled at open (the
// identity for a scratch load), applies OFFSET/LIMIT, and folds
// producers' completion records into the query trace.
//
// The dedupe set and held fragments (see pumpFragment) are the
// deliberate exceptions to the O(batch × fragments) memory bound. Keyed
// streams record one encoded key per distinct shipped row, in a keySet
// that keeps no string per key. Nothing keeps a key
// inside one fragment — predicates may overlap or be nil, a site
// hosting two fragments ships both, and a mid-stream replica failover
// replays the failed stream's prefix. Keyless tables carry no set at
// all. See DESIGN.md "Streaming execution".
type fedStream struct {
	f        *Federation
	ctx      context.Context
	cancel   context.CancelFunc
	trace    *QueryTrace
	ch       <-chan fragMsg
	counters *streamCounters

	run        *selectRun      // the statement's run, settled with the stream; nil for a scratch load
	limitStage *obs.StageStats // rows surviving OFFSET/LIMIT
	mergeStage *obs.StageStats // rows arriving over the fan-in
	limitRows  int64           // emitted rows not yet flushed to limitStage
	emitted    int             // rows returned by Next

	table     string
	fullWidth int // unprojected width, for pushdown accounting
	proj      projection
	cols      []string
	keyIdx    []int
	seen      *keySet // shipped keys; nil for a keyless table
	keyBuf    []byte

	pending []storage.Row
	pos     int
	waiting int // producers still owing a done message
	skip    int
	remain  int // -1 = unlimited
	err     error
	closed  bool
	settled bool
}

// newMerge returns the merge of one scan, emitting its shipped rows
// whole; start sets its producers going.
func (f *Federation) newMerge(ctx context.Context, sc *tableScan, trace *QueryTrace) *fedStream {
	ctx, mergeStage := obs.StartStage(ctx, "merge", lower(sc.gt.Def.Name))
	s := &fedStream{
		f: f, ctx: ctx, cancel: func() {}, trace: trace, counters: &streamCounters{},
		mergeStage: mergeStage, table: sc.gt.Def.Name, fullWidth: len(sc.gt.Def.Columns),
		cols: sc.def.ColumnNames(), proj: projection{ident: true}, remain: -1,
	}
	for _, k := range sc.def.Key {
		ci := sc.def.ColumnIndex(k)
		if ci < 0 {
			s.keyIdx = nil
			break
		}
		s.keyIdx = append(s.keyIdx, ci)
	}
	if len(s.keyIdx) > 0 {
		s.seen = &keySet{}
	}
	return s
}

// start fans the scan out to its fragments; limit, when ≥ 0, caps each
// fragment's scan.
func (s *fedStream) start(sc *tableScan, limit int) {
	var sctx context.Context
	sctx, s.cancel = context.WithCancel(s.ctx)
	var pruned int
	s.ch, s.waiting, pruned = s.f.scatter(sctx, sc, limit, s.seen != nil, s.counters)
	s.trace.PrunedFragments += pruned
	metPruned.Add(int64(pruned))
}

// Columns implements storage.RowStream.
func (s *fedStream) Columns() []string { return s.cols }

// Next implements storage.RowStream.
func (s *fedStream) Next() (storage.Row, error) {
	if s.closed {
		return nil, storage.ErrStreamClosed
	}
	for {
		if s.remain == 0 {
			return nil, s.finish(io.EOF)
		}
		for s.pos < len(s.pending) {
			row := s.pending[s.pos]
			s.pos++
			if s.skip > 0 {
				s.skip--
				continue
			}
			if s.remain > 0 {
				s.remain--
				if s.remain == 0 {
					// LIMIT satisfied: stop every producer now rather than
					// letting them finish their scans.
					s.cancel()
				}
			}
			// Counted locally and flushed per batch (and at finish): the
			// consumer loop pays no atomic per emitted row, and live
			// snapshots lag by at most one batch.
			s.limitRows++
			return row, nil
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.waiting == 0 {
			return nil, s.finishEOF()
		}
		// The fan-in receive is the merge's producer wait; it is measured
		// exactly (per message, not per row) so the cost stays O(batches).
		recvStart := time.Now()
		msg, ok := <-s.ch
		s.mergeStage.BlockedUpstream(time.Since(recvStart))
		if !ok {
			s.waiting = 0
			return nil, s.finishEOF()
		}
		if msg.done {
			s.waiting--
			if s.noteDone(msg) {
				s.consume(msg.held)
			}
			continue
		}
		s.counters.add(-int64(len(msg.batch.Rows)))
		s.consume(msg.batch.Rows)
		storage.PutBatch(msg.batch)
	}
}

// consume turns shipped rows into pending output rows. The row headers
// move into pending, so the caller may return their batch to the pool.
func (s *fedStream) consume(rows []storage.Row) {
	if len(rows) == 0 {
		return
	}
	s.mergeStage.AddBatch(int64(len(rows)), 0)
	s.flushLimitRows()
	s.pending, s.pos = s.pending[:0], 0
	if s.seen == nil {
		s.pending = append(s.pending, rows...)
	} else {
		for _, r := range rows {
			s.keyBuf = appendKey(s.keyBuf[:0], r, s.keyIdx)
			if s.seen.insert(s.keyBuf) {
				s.pending = append(s.pending, r)
			}
		}
	}
	n, err := s.proj.apply(s.pending)
	s.pending = s.pending[:n]
	if err != nil {
		s.fail(err)
	}
}

// noteDone folds one fragment's completion record into the trace —
// the single-consumer discipline that keeps QueryTrace race-free — and
// reports whether the fragment succeeded.
func (s *fedStream) noteDone(m fragMsg) bool {
	s.trace.Failovers += m.fail
	metFailovers.Add(int64(m.fail))
	if m.err != nil {
		// Under PartialResults a fragment lost to unavailability is
		// degraded around: its typed error lands on the trace and the
		// live fragments still answer. Its rows were held, so none of
		// them reached the merge. Semantic errors always fail.
		if s.f.PartialResults && isAvailabilityErr(m.err) && s.ctx.Err() == nil {
			s.trace.noteFragmentError(s.table+"/"+m.frag.ID, m.err)
			obs.MarkDegraded(s.ctx)
			return false
		}
		s.fail(m.err)
		return false
	}
	s.trace.FragmentSites[s.table+"/"+m.frag.ID] = m.site.Name()
	if m.stale {
		s.trace.StaleServed = append(s.trace.StaleServed, s.table+"/"+m.frag.ID+"@"+m.site.Name())
		metStaleReads.Inc()
		obs.MarkStale(s.ctx)
	}
	// Shipping cost is what crossed the site boundary: the rows the
	// site actually served (pre-residual) at the width it served them.
	// Partial rows can be wider than the table; they save no cells.
	full := max(s.fullWidth, m.width)
	metSiteRows(m.site.Name()).Add(int64(m.pushed))
	s.trace.CellsShipped += m.pushed * m.width
	s.trace.CellsWithoutPushdown += m.pushed * full
	metCellsShipped.Add(int64(m.pushed * m.width))
	metCellsSaved.Add(int64(m.pushed * (full - m.width)))
	s.trace.notePushed(s.table+"/"+m.frag.ID, m.pushed, m.pushed-m.rows)
	return true
}

// finishEOF ends the stream after the last producer message — unless
// the caller's context was cancelled, in which case producers may have
// stopped mid-fragment without a done record and a clean EOF would
// silently truncate the result. The RowStream contract forbids a
// silent early EOF, so cancellation surfaces as the stream's terminal
// error instead. (The internal cancel — LIMIT satisfied, Close — never
// touches s.ctx, so those paths still end clean.)
func (s *fedStream) finishEOF() error {
	if s.ctx.Err() != nil {
		// Cause keeps an operator kill typed (obs.ErrQueryCanceled)
		// through the wrap; Err would flatten it to context.Canceled.
		s.fail(fmt.Errorf("federation: merge of %s interrupted: %w", s.table, context.Cause(s.ctx)))
		return s.err
	}
	return s.finish(io.EOF)
}

// flushLimitRows moves the locally counted emitted rows onto the
// filter/limit stage's atomic.
func (s *fedStream) flushLimitRows() {
	if s.limitRows > 0 {
		s.limitStage.AddRows(s.limitRows)
		s.emitted += int(s.limitRows)
		s.limitRows = 0
	}
}

// fail records the stream's terminal error and stops the producers.
func (s *fedStream) fail(err error) {
	if s.err == nil {
		s.err = s.finish(err)
	}
}

// finish settles the merge's stages and the trace's buffering peak,
// and with them the statement's run, exactly once; it returns the
// terminal value Next should report (err, or io.EOF for a clean end).
func (s *fedStream) finish(err error) error {
	if s.settled {
		return err
	}
	s.settled = true
	s.cancel()
	s.flushLimitRows()
	peak := s.counters.peak.Load()
	s.trace.PeakBufferedRows = max(s.trace.PeakBufferedRows, int(peak))
	if err != nil && err != io.EOF {
		s.limitStage.Fail(err)
		s.mergeStage.Fail(err)
	}
	s.mergeStage.NotePeak(peak)
	s.mergeStage.Done()
	s.limitStage.Done()
	if s.run != nil {
		s.run.settle(s.emitted, err, s.mergeStage)
	}
	return err
}

// Close implements storage.RowStream: cancels the producers and drains
// the fan-in channel so every pooled batch is returned. Idempotent.
func (s *fedStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	//lint:ignore errdrop Close reports success; the stream's terminal error belongs to Next
	s.finish(nil)
	if s.ch == nil {
		return nil // never started
	}
	for msg := range s.ch {
		if msg.batch != nil {
			s.counters.add(-int64(len(msg.batch.Rows)))
			storage.PutBatch(msg.batch)
		}
	}
	return nil
}
