package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cohera/internal/admission"
	"cohera/internal/federation"
	"cohera/internal/ir"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wal"
	"cohera/internal/workload"
	"cohera/internal/wrapper"
)

// perCall times fn in batches for about d (at least three batches)
// and returns the median per-call time in microseconds. Batching keeps
// the clock's own cost out of sub-microsecond calls; the median keeps
// a GC cycle or a scheduling hiccup out of the figure.
func perCall(ctx context.Context, d time.Duration, batch int, fn func(i int) error) (float64, error) {
	var us []float64
	deadline := time.Now().Add(d)
	for i := 0; len(us) < 3 || time.Now().Before(deadline); {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		start := time.Now()
		for b := 0; b < batch; b++ {
			if err := fn(i); err != nil {
				return 0, err
			}
			i++
		}
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3/float64(batch))
	}
	return median(us), nil
}

// consume drains and closes a stream, returning the rows when keep is
// set and the row count always.
func consume(st storage.RowStream, keep bool) (rows []storage.Row, n int, err error) {
	defer func() {
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	for {
		row, nerr := st.Next()
		if errors.Is(nerr, io.EOF) {
			return rows, n, nil
		}
		if nerr != nil {
			return nil, n, nerr
		}
		n++
		if keep {
			rows = append(rows, row)
		}
	}
}

// counter reads a series of the public obs registry (get-or-create:
// asking for a series the program has not touched yet reads zero).
func counter(name string, labels obs.Labels) int64 {
	return obs.Default().Counter(name, "", labels).Value()
}

// layerProbes prices each layer from outside, through its public
// entry points, on the same beds the workloads use. share is the
// wall-clock slice one probe may take.
type layerProbes struct {
	cfg   config
	r     *report
	read  *readBed
	twin  *federation.Federation // same shards, held in-process
	write *writeBed              // 2 replicas, WAL
	bare  *writeBed              // 2 replicas, no WAL
	solo  *writeBed              // 1 replica, WAL
	share time.Duration
	peak  uint64 // highest HeapInuse seen between probes
}

func (p *layerProbes) us(ctx context.Context, name string, batch int, fn func(i int) error) error {
	v, err := perCall(ctx, p.share, batch, fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	p.r.set(name, v, "us")
	p.noteHeap()
	return nil
}

func (p *layerProbes) noteHeap() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapInuse > p.peak {
		p.peak = m.HeapInuse
	}
}

// statementPool is the text the parse/plan/explain probes run over:
// the interactive mix, so per-statement cost is weighted the way the
// workload weights it.
func statementPool(cfg config) ([]string, []sqlparse.SelectStmt, error) {
	g := newReadGen(cfg.seed, cfg.sz.shards, cfg.sz.perShard)
	sqls := make([]string, 200)
	sels := make([]sqlparse.SelectStmt, len(sqls))
	for i := range sqls {
		sqls[i] = g.next().sql
		stmt, err := sqlparse.Parse(sqls[i])
		if err != nil {
			return nil, nil, err
		}
		sels[i] = stmt.(sqlparse.SelectStmt)
	}
	return sqls, sels, nil
}

// planning: sqlparse, plan, federation.Explain, the bid round, the
// admission gate and the empty remote round trip — the fixed cost a
// small query pays before any row moves.
func (p *layerProbes) planning(ctx context.Context) error {
	sqls, sels, err := statementPool(p.cfg)
	if err != nil {
		return err
	}
	if err := p.us(ctx, "sqlparse.parse_us", 50, func(i int) error {
		_, err := sqlparse.Parse(sqls[i%len(sqls)])
		return err
	}); err != nil {
		return err
	}
	caps := plan.FullPushCaps()
	if err := p.us(ctx, "plan.split_us", 50, func(i int) error {
		where := sels[i%len(sels)].Where
		for _, c := range plan.Conjuncts(where) {
			plan.Sargable(c)
		}
		plan.SplitPushable(where, caps)
		return nil
	}); err != nil {
		return err
	}
	if err := p.us(ctx, "federation.explain_us", 20, func(i int) error {
		_, err := p.read.fed.Explain(ctx, sqlparse.ExplainStmt{Stmt: sels[i%len(sels)]})
		return err
	}); err != nil {
		return err
	}
	opt := p.read.fed.Optimizer()
	if err := p.us(ctx, "federation.bid_us", 20, func(i int) error {
		if ranked := opt.Rank(ctx, p.read.frags[i%len(p.read.frags)], p.cfg.sz.perShard); len(ranked) == 0 {
			return errors.New("auction closed empty")
		}
		return nil
	}); err != nil {
		return err
	}
	gate := admission.New(admission.Config{MaxInFlight: 64})
	defer gate.Close()
	if err := p.us(ctx, "admission.admit_us", 100, func(int) error {
		release, err := gate.Admit(ctx)
		if err != nil {
			return err
		}
		release()
		return nil
	}); err != nil {
		return err
	}
	// A key no shard holds, sent as the equality filter the index
	// serves: the request crosses HTTP, the gate and one index lookup,
	// and the answer is the ack line and the eof line.
	none := []wrapper.Filter{{Column: "sku", Value: value.NewString("none")}}
	src := p.read.peers[0].src
	return p.us(ctx, "remote.roundtrip_us", 10, func(int) error {
		st, _, err := src.FetchPushStream(ctx, none, wrapper.Pushdown{})
		if err != nil {
			return err
		}
		_, n, err := consume(st, false)
		if err == nil && n != 0 {
			err = fmt.Errorf("empty round trip returned %d rows", n)
		}
		return err
	})
}

// dataPlane: one peer's whole shard through storage, exec, the raw
// HTTP stream and the decoding client — each step adds one layer, so
// the differences price encode and decode per row.
func (p *layerProbes) dataPlane(ctx context.Context) error {
	peer := p.read.peers[0]
	tbl, err := peer.db.Table("catalog")
	if err != nil {
		return err
	}
	rows := float64(tbl.Len())
	rate := func(name string, fn func() (int, error)) (float64, error) {
		usPerScan, err := perCall(ctx, p.share, 1, func(int) error {
			n, err := fn()
			if err == nil && n != tbl.Len() {
				err = fmt.Errorf("%d rows, shard holds %d", n, tbl.Len())
			}
			return err
		})
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		p.r.set(name, rows/(usPerScan/1e6), "1/s")
		p.noteHeap()
		return usPerScan / rows, nil
	}
	if _, err := rate("storage.scan_rows_per_s", func() (int, error) {
		n := 0
		tbl.Scan(func(int64, storage.Row) bool { n++; return true })
		return n, nil
	}); err != nil {
		return err
	}
	all, err := sqlparse.Parse("SELECT * FROM catalog")
	if err != nil {
		return err
	}
	scanUS, err := rate("exec.scan_rows_per_s", func() (int, error) {
		st, err := peer.db.SelectStream(ctx, all.(sqlparse.SelectStmt))
		if err != nil {
			return 0, err
		}
		_, n, err := consume(st, false)
		return n, err
	})
	if err != nil {
		return err
	}
	client := &http.Client{Transport: p.read.transport}
	rawUS, err := rate("remote.server_stream_rows_per_s", func() (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer.url+"/fetchstream", strings.NewReader(`{"table":"catalog"}`))
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %s", resp.Status)
		}
		return tbl.Len(), err // the raw body is not decoded; its row count is the shard's
	})
	if err != nil {
		return err
	}
	side := obs.Labels{"side": "client"}
	bytes0, batches0 := counter("cohera_stream_bytes_total", side), counter("cohera_stream_batches_total", side)
	fetches := 0
	fetchUS, err := rate("remote.fetch_rows_per_s", func() (int, error) {
		st, _, err := peer.src.FetchPushStream(ctx, nil, wrapper.Pushdown{})
		if err != nil {
			return 0, err
		}
		fetches++
		_, n, err := consume(st, false)
		return n, err
	})
	if err != nil {
		return err
	}
	p.r.set("remote.wire_bytes_per_row", float64(counter("cohera_stream_bytes_total", side)-bytes0)/(float64(fetches)*rows), "B")
	p.r.set("remote.batches_per_query", float64(counter("cohera_stream_batches_total", side)-batches0)/float64(fetches), "count")
	p.r.set("remote.encode_us_per_row", rawUS-scanUS, "us")
	p.r.set("remote.decode_us_per_row", fetchUS-rawUS, "us")

	// The pushed 0.1% predicate, evaluated where the rows live.
	filter, err := sqlparse.Parse("SELECT sku, qty FROM catalog WHERE qty >= 500 AND qty < 501")
	if err != nil {
		return err
	}
	v, err := perCall(ctx, p.share, 1, func(int) error {
		st, err := peer.db.SelectStream(ctx, filter.(sqlparse.SelectStmt))
		if err != nil {
			return err
		}
		_, _, err = consume(st, false)
		return err
	})
	if err != nil {
		return fmt.Errorf("exec.filter_scan_ms: %w", err)
	}
	p.r.set("exec.filter_scan_ms", v/1e3, "ms")
	return nil
}

// storageAndText: index lookups, single-row mutation and the text
// index, on a peer's table and a scratch copy of its schema.
func (p *layerProbes) storageAndText(ctx context.Context) error {
	tbl, err := p.read.peers[0].db.Table("catalog")
	if err != nil {
		return err
	}
	n := tbl.Len()
	key := func(i int) value.Value { return value.NewString(skuAt(readPrefix(0), spreadRank(i, n))) }
	if err := p.us(ctx, "storage.lookup_eq_us", 100, func(i int) error {
		ids, err := tbl.LookupEqual("sku", key(i))
		if err == nil && len(ids) != 1 {
			err = fmt.Errorf("lookup found %d rows", len(ids))
		}
		return err
	}); err != nil {
		return err
	}
	if err := p.us(ctx, "storage.lookup_range_us", 100, func(i int) error {
		lo := spreadRank(i, n-10)
		ids, err := tbl.LookupRange("sku", value.NewString(skuAt(readPrefix(0), lo)), value.NewString(skuAt(readPrefix(0), lo+9)))
		if err == nil && len(ids) != 10 {
			err = fmt.Errorf("range found %d rows", len(ids))
		}
		return err
	}); err != nil {
		return err
	}
	var base []storage.Row
	tbl.Scan(func(_ int64, r storage.Row) bool { base = append(base, r); return true })
	scratch := storage.NewTable(workload.CatalogDef())
	if err := scratch.CreateIndex("sku"); err != nil {
		return err
	}
	var ids []int64
	if err := p.us(ctx, "storage.insert_us", 100, func(i int) error {
		row := append(storage.Row(nil), base[i%n]...)
		row[0] = value.NewString(fmt.Sprintf("Z%09d", i))
		id, err := scratch.Insert(row)
		ids = append(ids, id)
		return err
	}); err != nil {
		return err
	}
	if err := p.us(ctx, "storage.update_us", 100, func(i int) error {
		id := ids[i%len(ids)]
		row, err := scratch.Get(id)
		if err != nil {
			return err
		}
		row[6] = value.NewInt(int64(i))
		return scratch.Update(id, row)
	}); err != nil {
		return err
	}
	queries := workload.SearchQueries(p.cfg.seed+3, 60)
	syn := ir.NewSynonyms()
	declareSynonyms(syn)
	search := func(name string, fuzzy bool, want string) error {
		var qs []string
		for _, q := range queries {
			if (q.Kind == "typo") == (want == "typo") {
				qs = append(qs, q.Query)
			}
		}
		return p.us(ctx, name, 5, func(i int) error {
			_, err := tbl.TextSearch("name", qs[i%len(qs)], ir.SearchOptions{Synonyms: syn, Fuzzy: fuzzy})
			return err
		})
	}
	if err := search("ir.search_us", false, "exact"); err != nil {
		return err
	}
	return search("ir.fuzzy_us", true, "typo")
}

// wireTax: the same point and wide statements on the remote
// federation and on its in-process twin, interleaved so drift lands on
// both; the differences are what the wire adds. The twin's wide scan
// against the sum of its site scans prices the coordinator's merge.
func (p *layerProbes) wireTax(ctx context.Context) error {
	type side struct {
		fed *federation.Federation
		s   *samples
	}
	g := newReadGen(p.cfg.seed, p.cfg.sz.shards, p.cfg.sz.perShard)
	var inPoint, rePoint, inWide, reWide samples
	deadline := time.Now().Add(2 * p.share)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for k := 0; k < 20; k++ {
			sql := g.point().sql
			for _, side := range []side{{p.twin, &inPoint}, {p.read.fed, &rePoint}} {
				t := time.Now()
				res, err := side.fed.Query(ctx, sql)
				if err != nil {
					return err
				}
				side.s.add(msSince(t))
				if len(res.Rows) != 1 {
					p.r.problem("%s returned %d rows", sql, len(res.Rows))
				}
			}
		}
		for _, side := range []side{{p.twin, &inWide}, {p.read.fed, &reWide}} {
			t := time.Now()
			_, n, _, err := drain(ctx, side.fed, "SELECT * FROM catalog", false)
			if err != nil {
				return err
			}
			side.s.add(msSince(t))
			if n != p.cfg.sz.shards*p.cfg.sz.perShard {
				p.r.problem("wide scan returned %d rows", n)
			}
		}
	}
	p.r.set("federation.inproc_point_ms", inPoint.p(0.5), "ms")
	p.r.set("federation.inproc_wide_scan_ms", inWide.p(0.5), "ms")
	p.r.set("remote.wire_tax_point_ms", rePoint.p(0.5)-inPoint.p(0.5), "ms")
	p.r.set("remote.wire_tax_wide_ms", reWide.p(0.5)-inWide.p(0.5), "ms")

	all, err := sqlparse.Parse("SELECT * FROM catalog")
	if err != nil {
		return err
	}
	sites := p.twin.Sites()
	scansUS, err := perCall(ctx, p.share/2, 1, func(int) error {
		for _, s := range sites {
			if s.TableRows("catalog") == 0 {
				continue // the suppliers site
			}
			st, err := s.DB().SelectStream(ctx, all.(sqlparse.SelectStmt))
			if err != nil {
				return err
			}
			if _, _, err := consume(st, false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.r.set("federation.merge_us_per_row", (inWide.p(0.5)*1e3-scansUS)/float64(p.cfg.sz.shards*p.cfg.sz.perShard), "us")
	p.noteHeap()
	return nil
}

// traceCounters reads what QueryTrace reports about one pass of the
// interactive mix plus one wide stream: rows shipped per result row,
// residual drops, pruning and the fan-in's high-water mark.
func (p *layerProbes) traceCounters(ctx context.Context) error {
	g := newReadGen(p.cfg.seed, p.cfg.sz.shards, p.cfg.sz.perShard)
	var shipped, dropped, result, pruned, queries int
	for i := 0; i < 200; i++ {
		res, tr, err := p.read.fed.QueryTraced(ctx, g.next().sql)
		if err != nil {
			return err
		}
		queries++
		pruned += tr.PrunedFragments
		result += len(res.Rows)
		for _, n := range tr.PushedRows {
			shipped += n
		}
		for _, n := range tr.ResidualDropped {
			dropped += n
		}
	}
	p.r.set("remote.rows_decoded_per_result_row", float64(shipped)/float64(result), "ratio")
	p.r.set("federation.residual_dropped_per_result_row", float64(dropped)/float64(result), "ratio")
	p.r.set("federation.pruned_fragments_per_query", float64(pruned)/float64(queries), "count")
	st, tr, err := p.read.fed.QueryStream(ctx, "SELECT * FROM catalog")
	if err != nil {
		return err
	}
	if _, _, err := consume(st, false); err != nil {
		return err
	}
	p.r.set("federation.peak_buffered_rows", float64(tr.PeakBufferedRows), "count")
	return nil
}

// walSum adds one cohera_wal_* counter over a bed's sites.
func walSum(b *writeBed, name string) int64 {
	var n int64
	for _, s := range b.sites {
		n += counter(name, obs.Labels{"wal": s.Name()})
	}
	return n
}

// durability: the WAL append alone, then the same single-row INSERTs
// on three beds statement by statement — WAL vs no WAL prices the
// log, two replicas vs one prices replica apply — with the WAL
// registry read at the same boundaries.
func (p *layerProbes) durability(ctx context.Context) error {
	dir, err := os.MkdirTemp(p.cfg.workDir, "walprobe-")
	if err != nil {
		return err
	}
	defer func() {
		rmErr := os.RemoveAll(dir)
		_ = rmErr // teardown; nothing to report to
	}()
	l, _, err := wal.Open(filepath.Join(dir, "append"), wal.Options{Policy: wal.SyncBatch, Name: "probe-append"})
	if err != nil {
		return err
	}
	tbl, err := p.read.peers[0].db.Table("catalog")
	if err != nil {
		closeErr := l.Close()
		_ = closeErr
		return err
	}
	var row storage.Row
	tbl.Scan(func(_ int64, r storage.Row) bool { row = r; return false })
	rec := wal.Record{Kind: wal.KindPut, Table: "catalog", Row: wal.EncodeRow(row)}
	err = p.us(ctx, "wal.append_us", 100, func(int) error {
		return l.Locked(func(a *wal.Appender) error { return a.Append(rec) })
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	beds := []*writeBed{p.bare, p.write, p.solo}
	var tot [3]time.Duration
	bytes0, appends0, fsyncs0 := walSum(p.write, "cohera_wal_bytes_total"), walSum(p.write, "cohera_wal_appends_total"), walSum(p.write, "cohera_wal_fsyncs_total")
	stmts := 0
	deadline := time.Now().Add(2 * p.share)
	for stmts < 100 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		sql := fmt.Sprintf("INSERT INTO catalog (sku, supplier, name, category, qty) VALUES ('%s%08d', 'supplier-98', 'claw hammer', '27.12.01', %d)",
			writeInsertPrefix[stmts%2], 50_000_000+stmts, stmts%1000)
		for b, bed := range beds {
			t := time.Now()
			_, dr, err := bed.fed.Exec(ctx, sql)
			tot[b] += time.Since(t)
			if err := dmlOutcome(dr, err); err != nil {
				return fmt.Errorf("%s: %w", sql, err)
			}
		}
		stmts++
	}
	perStmt := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(stmts) }
	p.r.set("wal.dml_overhead_us", perStmt(tot[1])-perStmt(tot[0]), "us")
	p.r.set("federation.replica_apply_overhead_us", perStmt(tot[1])-perStmt(tot[2]), "us")
	p.r.set("wal.bytes_per_op", float64(walSum(p.write, "cohera_wal_bytes_total")-bytes0)/float64(stmts), "B")
	p.r.set("wal.fsyncs_per_kop", 1e3*float64(walSum(p.write, "cohera_wal_fsyncs_total")-fsyncs0)/float64(stmts), "count")
	p.r.info("wal.appends_per_op", float64(walSum(p.write, "cohera_wal_appends_total")-appends0)/float64(stmts), "count")
	var p99 time.Duration
	for _, s := range p.write.sites {
		h := obs.Default().Histogram("cohera_wal_fsync_latency", "", obs.Labels{"wal": s.Name()})
		if q := h.Quantile(0.99); q > p99 {
			p99 = q
		}
	}
	p.r.set("wal.fsync_p99_ms", float64(p99.Nanoseconds())/1e6, "ms")
	pending := p.write.fed.Journal().PendingTotal()
	p.r.set("journal.pending_after_quiesce", float64(pending), "count")
	if pending != 0 {
		p.r.problem("journal holds %d pending intents after quiesce", pending)
	}
	p.noteHeap()
	return nil
}

// recovery: load/recover cycles priced per phase, and the log's
// volume against the bytes of user data it protects.
func (p *layerProbes) recovery(ctx context.Context) error {
	per := p.cfg.sz.loadRows / len(writeBasePrefix)
	shards, err := catalogShards(writeBasePrefix, per, p.cfg.seed)
	if err != nil {
		return err
	}
	var userBytes int
	for _, rows := range shards {
		for _, r := range rows {
			userBytes += len(value.AppendRowKey(nil, r))
		}
	}
	names := []string{"c00", "c01", "c10", "c11"}
	var replay, ckpt, restore samples
	var walBytes, records int64
	deadline := time.Now().Add(3 * p.share)
	for replay.n() < 2 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return err
		}
		var b0 int64
		for _, n := range names {
			b0 += counter("cohera_wal_bytes_total", obs.Labels{"wal": n})
		}
		ms, replayed, err := loadRecoverCycle(p.cfg, shards, p.r)
		if err != nil {
			return err
		}
		for _, n := range names {
			walBytes += counter("cohera_wal_bytes_total", obs.Labels{"wal": n})
		}
		walBytes -= b0
		records += int64(replayed)
		replay.add(ms[phaseReplay])
		ckpt.add(ms[phaseCheckpoint])
		restore.add(ms[phaseRestore])
	}
	cycles := float64(replay.n())
	p.r.set("wal.checkpoint_s", ckpt.p(0.5)/1e3, "s")
	p.r.set("wal.recover_ckpt_s", restore.p(0.5)/1e3, "s")
	p.r.set("wal.replay_us_per_record", replay.p(0.5)*1e3/(float64(records)/cycles), "us")
	p.r.set("wal.bytes_per_user_byte", float64(walBytes)/cycles/float64(userBytes*replicasPerFragment), "ratio")
	p.noteHeap()
	return nil
}
