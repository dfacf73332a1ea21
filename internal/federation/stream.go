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

	partials []storage.Row // a grouped fragment's partial rows (successful done messages)
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

// scatter fans one global table's fragment subqueries out to producer
// goroutines and returns the fan-in channel. The channel is closed
// after every producer has sent its done message. canReplay permits
// mid-stream failover to the next replica — sound only when the
// consumer dedupes by primary key, since the replacement replica
// replays rows the failed stream already shipped. With group set the
// fragments fold to partial rows instead of shipping batches.
func (f *Federation) scatter(ctx context.Context, gt *GlobalTable, push sqlparse.Expr, cols []string,
	limit int, batchRows int, canReplay bool, counters *streamCounters, group *plan.Grouping) (ch <-chan fragMsg, active, pruned int) {
	var frags []*Fragment
	for _, frag := range f.FragmentsOf(gt) {
		if frag.Predicate != nil && push != nil && disjoint(frag.Predicate, push) {
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
			f.pumpFragment(ctx, gt, frag, push, cols, limit, batchRows, canReplay, counters, out, group, turn)
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
// With group set the fragment folds instead of shipping batches: a
// replica that advertises grouping and applies the whole predicate
// returns the partial rows itself, any other ships its rows and the
// pump folds them with the same kernel. Either way the pump holds the
// fragment's partials and sends them only in its success record, so a
// failover throws the dead replica's partials away and asks again.
func (f *Federation) pumpFragment(ctx context.Context, gt *GlobalTable, frag *Fragment,
	push sqlparse.Expr, cols []string, limit int, batchRows int, canReplay bool,
	counters *streamCounters, out chan<- fragMsg, group *plan.Grouping, turn chan struct{}) {
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
		sitePush, siteResid := push, sqlparse.Expr(nil)
		siteCols, siteLimit := cols, -1
		siteGroup := false
		if f.DisablePredicatePushdown {
			sitePush, siteResid = nil, push
		} else {
			caps := site.PushCaps()
			sitePush, siteResid = plan.SplitPushable(push, caps)
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
		if !siteGroup && (siteResid != nil || (cols != nil && siteCols == nil)) {
			spec := plan.FuseSpec{Where: siteResid, Limit: -1}
			if cols != nil && siteCols == nil {
				idx, perr := projectIdx(st.Columns(), cols)
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
		var partials []storage.Row
		var pumpErr error
		if group != nil {
			partials, pushedRows, shipped, pumpErr = foldFragment(st, fuse, group, siteGroup, fstage)
		} else {
			shipped, pumpErr = pumpStream(gctx, st, fstage, batchRows, send, turn)
			pushedRows = shipped
			if fuse != nil {
				pushedRows = int(fuse.RowsIn())
			}
		}
		if pumpErr == nil {
			finish(fragMsg{site: site, rows: shipped, pushed: pushedRows, width: siteWidth,
				fail: fails, stale: frag.PendingAt(site) > 0, partials: partials})
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
		// A stream that broke mid-flight may have shipped a prefix. With
		// primary-key dedupe downstream the next replica's full replay is
		// absorbed, so availability failures keep failing over; without a
		// key a replay would duplicate rows, so the fragment fails.
		if canReplay && isAvailabilityErr(pumpErr) {
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
// text search) run the materialized path and stream the finished
// result. The caller must Close the stream; the returned trace's
// fields settle once the stream ends (EOF, error, or Close).
func (f *Federation) SelectStream(ctx context.Context, sel sqlparse.SelectStmt) (storage.RowStream, *QueryTrace, error) {
	ctx, release, err := f.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	if !StreamableSelect(sel) {
		// Materialized fallback: the coordinator work is done when
		// Select returns, so the slot is released here; the returned
		// stream is a pure in-memory replay.
		defer release()
		res, trace, err := f.Select(ctx, sel)
		if err != nil {
			return nil, nil, err
		}
		return storage.NewSliceStream(res.Columns, res.Rows), trace, nil
	}
	ctx, sp := obs.StartSpan(ctx, "federation.selectstream")
	sp.Set("table", sel.From.Name)
	if f.gate != nil {
		sp.Set("tenant", admission.TenantOf(ctx))
	}
	metQueries.Inc()
	ctx, aq := f.registerQuery(ctx, "select", sel.String())
	aq.SetTraceID(sp.TraceID)

	st, trace, err := f.openSelectStream(ctx, sel, sp, aq)
	if err != nil {
		release()
		metQueryErrs.Inc()
		sp.SetErr(err)
		sp.End()
		aq.Finish()
		return nil, nil, err
	}
	trace.TraceID = sp.TraceID
	// The admission slot rides the stream: it frees when the caller
	// drains or closes it, so a slow consumer exerts backpressure at
	// the gate (new work queues or sheds) instead of inflating buffers.
	return admission.NewTrackedStream(st, release), trace, nil
}

// openSelectStream builds the merge stream for a streamable SELECT.
// aq is the stream's registry entry (nil when observability is off);
// the stream owns it and unregisters it when it settles.
func (f *Federation) openSelectStream(ctx context.Context, sel sqlparse.SelectStmt, sp *obs.Span, aq *obs.ActiveQuery) (storage.RowStream, *QueryTrace, error) {
	gt, err := f.Table(sel.From.Name)
	if err != nil {
		return nil, nil, err
	}
	alias := lower(sel.From.EffectiveName())
	trace := &QueryTrace{FragmentSites: make(map[string]string)}

	// Predicate pushdown, as in the materialized path: all conjuncts are
	// local to the single table; text predicates were excluded by
	// StreamableSelect.
	conjuncts := plan.Conjuncts(sel.Where)
	local, _ := plan.SplitByTable(conjuncts, alias, true)
	push := unqualify(plan.AndExprs(dropTextPredicates(local)))

	// Projection pushdown: ship only the referenced columns plus the
	// primary key the merge dedupes on.
	def := gt.Def
	var cols []string
	if !f.DisableProjectionPushdown {
		aliases := map[string]aliasInfo{alias: {table: lower(gt.Def.Name), def: gt.Def}}
		if want, ok := neededColumns(sel, aliases)[lower(gt.Def.Name)]; ok {
			if projected, pc := projectDef(gt.Def, want); projected != nil {
				def, cols = projected, pc
			}
		}
	}

	items, err := expandFedStars(sel.Items, alias, def)
	if err != nil {
		return nil, nil, err
	}
	var keyIdx []int
	for _, k := range def.Key {
		ci := def.ColumnIndex(k)
		if ci < 0 {
			keyIdx = nil
			break
		}
		keyIdx = append(keyIdx, ci)
	}

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
	ctx, mergeStage := obs.StartStage(ctx, "merge", lower(sel.From.Name))

	sctx, cancel := context.WithCancel(ctx)
	s := &fedStream{
		f: f, ctx: ctx, cancel: cancel, sp: sp, start: time.Now(),
		aq: aq, sql: sel.String(), limitStage: limitStage, mergeStage: mergeStage,
		trace: trace, counters: &streamCounters{},
		table: gt.Def.Name, fullWidth: len(gt.Def.Columns),
		cols: fedItemNames(items), keyIdx: keyIdx, remain: -1,
	}
	// The merge is compiled before any fragment is asked, so a
	// reference that does not bind fails the same way whether the table
	// is full, empty or pruned away: from the first Next, as FuseStream
	// reports one.
	if s.proj, err = compileMerge(sel.Where, items, alias, def); err != nil {
		none := make(chan fragMsg)
		close(none)
		s.ch = none
		s.fail(err)
		return s, trace, nil
	}

	// Each fragment may hold the whole answer, so a per-site limit must
	// cover OFFSET+LIMIT rows; the PK dedupe and this stream's own
	// offset/limit do the rest.
	fragLimit := -1
	if sel.Limit >= 0 {
		fragLimit = sel.Limit + sel.Offset
		s.remain = sel.Limit
	}
	s.skip = sel.Offset

	if len(keyIdx) > 0 {
		s.seen = &keySet{}
	}
	var active, pruned int
	s.ch, active, pruned = f.scatter(sctx, gt, push, cols, fragLimit, clampFedBatch(f.StreamBatchRows),
		len(keyIdx) > 0, s.counters, nil)
	s.waiting = active
	trace.PrunedFragments += pruned
	metPruned.Add(int64(pruned))
	return s, trace, nil
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
// schema, mirroring the executor's expansion so streamed and
// materialized results name columns identically.
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
// the single consumer of the fan-in channel. It trusts the pushdown
// split — every row arriving passed its fragment's pushed predicate or
// its pump's fused residual, so no WHERE is checked here — projects the
// select items through the projection compiled at open, dedupes by
// primary key (first copy wins), applies OFFSET/LIMIT, and folds
// producers' completion records into the query trace.
//
// The dedupe set is the one deliberate exception to the O(batch ×
// fragments) memory bound: keyed streams record one encoded key per
// distinct shipped row, in a keySet that keeps no string per key.
// Nothing keeps a key inside one fragment — predicates may overlap or
// be nil, a site hosting two fragments ships both, a mid-stream
// replica failover replays the failed stream's prefix, and a row no
// predicate claimed homes in the first fragment, so a fragment added
// later that covers its key can receive a second copy. Keyless tables
// carry no set at all. See DESIGN.md "Streaming execution".
type fedStream struct {
	f        *Federation
	ctx      context.Context
	cancel   context.CancelFunc
	sp       *obs.Span
	start    time.Time
	trace    *QueryTrace
	ch       <-chan fragMsg
	counters *streamCounters

	aq         *obs.ActiveQuery // registry entry; finished when the stream settles
	sql        string           // statement text, for the slow-query log
	limitStage *obs.StageStats  // rows surviving OFFSET/LIMIT
	mergeStage *obs.StageStats  // rows arriving over the fan-in
	limitRows  int64            // emitted rows not yet flushed to limitStage

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
			s.noteDone(msg)
			continue
		}
		s.consumeBatch(msg.batch)
	}
}

// consumeBatch turns one shipped batch into pending output rows. The
// row headers move into pending before the batch returns to the pool.
func (s *fedStream) consumeBatch(b *storage.Batch) {
	s.counters.add(-int64(len(b.Rows)))
	s.mergeStage.AddBatch(int64(len(b.Rows)), 0)
	s.flushLimitRows()
	s.pending, s.pos = s.pending[:0], 0
	if s.seen == nil {
		s.pending = append(s.pending, b.Rows...)
	} else {
		for _, r := range b.Rows {
			s.keyBuf = appendKey(s.keyBuf[:0], r, s.keyIdx)
			if s.seen.insert(s.keyBuf) {
				s.pending = append(s.pending, r)
			}
		}
	}
	storage.PutBatch(b)
	n, err := s.proj.apply(s.pending)
	s.pending = s.pending[:n]
	if err != nil {
		s.fail(err)
	}
}

// noteDone folds one fragment's completion record into the trace —
// the single-consumer discipline that keeps QueryTrace race-free.
func (s *fedStream) noteDone(m fragMsg) {
	s.trace.Failovers += m.fail
	metFailovers.Add(int64(m.fail))
	if m.err != nil {
		// Under PartialResults a fragment lost to unavailability is
		// degraded around: its typed error lands on the trace and the
		// live fragments still answer. Semantic errors always fail.
		if s.f.PartialResults && isAvailabilityErr(m.err) && s.ctx.Err() == nil {
			s.trace.noteFragmentError(s.table+"/"+m.frag.ID, m.err)
			obs.MarkDegraded(s.ctx)
			return
		}
		s.fail(m.err)
		return
	}
	s.trace.FragmentSites[s.table+"/"+m.frag.ID] = m.site.Name()
	if m.stale {
		s.trace.StaleServed = append(s.trace.StaleServed, s.table+"/"+m.frag.ID+"@"+m.site.Name())
		metStaleReads.Inc()
		obs.MarkStale(s.ctx)
	}
	// Shipping cost is what crossed the site boundary: the rows the
	// site actually served (pre-residual) at the width it served them.
	metSiteRows(m.site.Name()).Add(int64(m.pushed))
	s.trace.CellsShipped += m.pushed * m.width
	s.trace.CellsWithoutPushdown += m.pushed * s.fullWidth
	metCellsShipped.Add(int64(m.pushed * m.width))
	metCellsSaved.Add(int64(m.pushed * (s.fullWidth - m.width)))
	s.trace.notePushed(s.table+"/"+m.frag.ID, m.pushed, m.pushed-m.rows)
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
		s.fail(fmt.Errorf("federation: streaming select interrupted: %w", context.Cause(s.ctx)))
		return s.err
	}
	return s.finish(io.EOF)
}

// flushLimitRows moves the locally counted emitted rows onto the
// filter/limit stage's atomic.
func (s *fedStream) flushLimitRows() {
	if s.limitRows > 0 {
		s.limitStage.AddRows(s.limitRows)
		s.limitRows = 0
	}
}

// fail records the stream's terminal error and stops the producers.
func (s *fedStream) fail(err error) {
	if s.err == nil {
		s.err = s.finish(err)
	}
}

// finish settles the trace, metrics and span exactly once; it returns
// the terminal value Next should report (err, or io.EOF for a clean
// end).
func (s *fedStream) finish(err error) error {
	if s.settled {
		return err
	}
	s.settled = true
	s.cancel()
	s.flushLimitRows()
	s.trace.PeakBufferedRows = int(s.counters.peak.Load())
	metQuerySeconds.Observe(time.Since(s.start))
	if err != nil && err != io.EOF {
		metQueryErrs.Inc()
		s.sp.SetErr(err)
		s.limitStage.Fail(err)
	} else {
		if s.trace.Degraded {
			s.sp.Set("degraded", strconv.Itoa(len(s.trace.FragmentErrors)))
			metDegraded.Inc()
			metDegradedFragments.Add(int64(len(s.trace.FragmentErrors)))
		}
		s.sp.Set("peak_buffered_rows", strconv.Itoa(s.trace.PeakBufferedRows))
	}
	s.mergeStage.NotePeak(s.counters.peak.Load())
	s.mergeStage.Done()
	s.limitStage.Done()
	s.sp.SetStage(s.mergeStage)
	s.sp.End()
	if s.f.Slow != nil && s.aq != nil {
		s.f.Slow.RecordStages(s.sql, time.Since(s.start), s.trace.TraceID, s.aq.Stages().Snapshot())
	}
	s.aq.Finish()
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
	for msg := range s.ch {
		if msg.batch != nil {
			s.counters.add(-int64(len(msg.batch.Rows)))
			storage.PutBatch(msg.batch)
		}
	}
	return nil
}
