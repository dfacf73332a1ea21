package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"cohera/internal/federation"
	"cohera/internal/storage"
	"cohera/internal/workload"
)

// DML classes, in the order class1..class3 report them; class4 is the
// reader beside the writer.
const (
	dmlUpdate = iota
	dmlInsert
	dmlDelete
	numDML
)

var dmlNames = [numDML]string{"update", "insert", "delete"}

// writeModel is the writer's own account of what the table must hold
// once every acknowledged statement has applied: the qty it last set
// per base key and the keys it inserted and has not deleted.
type writeModel struct {
	qty      map[string]int64 // sku → last acknowledged qty
	inserted []string         // live inserted skus, oldest first
	nextIns  int
}

// writer draws the DML stream: 50% single-row UPDATE of a Zipf-chosen
// base key, 25% INSERT of a fresh key, 25% DELETE of the oldest key it
// inserted — so the table's size is steady.
type writer struct {
	rng      *rand.Rand
	keyZipf  func() int
	perShard int
	model    writeModel
}

func newWriter(seed int64, perShard int) *writer {
	return &writer{
		rng:      rand.New(rand.NewSource(seed)),
		keyZipf:  workload.Zipf(len(writeBasePrefix)*perShard, 1.1, seed+1),
		perShard: perShard,
		model:    writeModel{qty: make(map[string]int64)},
	}
}

func (w *writer) baseKey() string {
	k := spreadRank(w.keyZipf(), len(writeBasePrefix)*w.perShard)
	return skuAt(writeBasePrefix[k/w.perShard], k%w.perShard)
}

// next renders the next statement and returns the function that
// records it in the model once it is acknowledged.
func (w *writer) next() (class int, sql string, ack func()) {
	r := w.rng.Intn(100)
	switch {
	case r < 50:
		sku, qty := w.baseKey(), int64(w.rng.Intn(1000))
		return dmlUpdate, fmt.Sprintf("UPDATE catalog SET qty = %d WHERE sku = '%s'", qty, sku),
			func() { w.model.qty[sku] = qty }
	case r < 75 || len(w.model.inserted) == 0:
		n := w.model.nextIns
		w.model.nextIns++
		sku, qty := fmt.Sprintf("%s%08d", writeInsertPrefix[n%len(writeInsertPrefix)], n), int64(w.rng.Intn(1000))
		return dmlInsert, fmt.Sprintf("INSERT INTO catalog (sku, supplier, name, category, qty) VALUES ('%s', 'supplier-99', 'claw hammer', '27.12.01', %d)", sku, qty),
			func() {
				w.model.inserted = append(w.model.inserted, sku)
				w.model.qty[sku] = qty
			}
	default:
		sku := w.model.inserted[0]
		return dmlDelete, fmt.Sprintf("DELETE FROM catalog WHERE sku = '%s'", sku),
			func() {
				w.model.inserted = w.model.inserted[1:]
				delete(w.model.qty, sku)
			}
	}
}

// reader draws the reads that run beside the writer, on the same
// table: 80% PK point, 20% ten-row key range, both over base keys,
// whose sku and name the writer never changes — so each answer is
// fully determined even while qty moves underneath.
type reader struct {
	rng      *rand.Rand
	keyZipf  func() int
	perShard int
	names    [][]string // [fragment][j] → the generated name of base row j
}

func newReader(seed int64, shards [][]storage.Row) *reader {
	rd := &reader{
		rng:      rand.New(rand.NewSource(seed)),
		keyZipf:  workload.Zipf(len(shards)*len(shards[0]), 1.1, seed+1),
		perShard: len(shards[0]),
	}
	for _, rows := range shards {
		names := make([]string, len(rows))
		for j, row := range rows {
			names[j] = row[2].Str()
		}
		rd.names = append(rd.names, names)
	}
	return rd
}

// next returns the statement and the (sku, name) pairs it must return.
func (rd *reader) next() (sql string, wantSKU, wantName []string) {
	k := spreadRank(rd.keyZipf(), len(writeBasePrefix)*rd.perShard)
	f, j := k/rd.perShard, k%rd.perShard
	if rd.rng.Intn(100) < 80 {
		return fmt.Sprintf("SELECT sku, name FROM catalog WHERE sku = '%s'", skuAt(writeBasePrefix[f], j)),
			[]string{skuAt(writeBasePrefix[f], j)}, rd.names[f][j : j+1]
	}
	const span = 10
	if j+span > rd.perShard {
		j = rd.perShard - span
	}
	for i := j; i < j+span; i++ {
		wantSKU = append(wantSKU, skuAt(writeBasePrefix[f], i))
	}
	return fmt.Sprintf("SELECT sku, name FROM catalog WHERE sku BETWEEN '%s' AND '%s'", wantSKU[0], wantSKU[span-1]),
		wantSKU, rd.names[f][j : j+span]
}

// checkRead verifies a reader's answer against the immutable columns.
func checkRead(rows []storage.Row, wantSKU, wantName []string) error {
	if len(rows) != len(wantSKU) {
		return fmt.Errorf("%d rows, want %d", len(rows), len(wantSKU))
	}
	got := make(map[string]string, len(rows))
	for _, r := range rows {
		got[r[0].Str()] = r[1].Str()
	}
	for i, sku := range wantSKU {
		if name, ok := got[sku]; !ok || name != wantName[i] {
			return fmt.Errorf("row %s: name %q present=%v, want %q", sku, name, ok, wantName[i])
		}
	}
	return nil
}

// buildWriteSide generates the two base shards and times the set-ups
// of the WAL-backed bed (open logs, bulk load, index, warm-up).
func buildWriteSide(ctx context.Context, cfg config, warm func(*writeBed) error) (*writeBed, [][]storage.Row, float64, error) {
	shards, err := catalogShards(writeBasePrefix, cfg.sz.writeRows, cfg.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	bed, setupS, err := timeSetups(ctx, cfg.sz.setupReps, func() (*writeBed, error) {
		b, err := newTempWriteBed("w", cfg.workDir)
		if err != nil {
			return nil, err
		}
		// Each replica's engine owns its rows; UPDATE replaces them.
		if err := b.load([][]storage.Row{cloneRows(shards[0]), cloneRows(shards[1])}); err != nil {
			b.close()
			return nil, err
		}
		if err := warm(b); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	})
	return bed, shards, setupS, err
}

func runDMLBesideReads(ctx context.Context, cfg config) (*report, error) {
	sz := cfg.sz
	bed, shards, setupS, err := buildWriteSide(ctx, cfg, func(b *writeBed) error {
		// Warm-up DML uses its own key space and removes what it adds,
		// so the model starts from the loaded base rows.
		for i := 0; i < sz.warmOps; i++ {
			sku := fmt.Sprintf("%s9%07d", writeInsertPrefix[i%2], i)
			for _, sql := range []string{
				fmt.Sprintf("INSERT INTO catalog (sku, supplier, name, category, qty) VALUES ('%s', 'supplier-99', 'claw hammer', '27.12.01', 1)", sku),
				fmt.Sprintf("UPDATE catalog SET qty = 2 WHERE sku = '%s'", sku),
				fmt.Sprintf("DELETE FROM catalog WHERE sku = '%s'", sku),
			} {
				if _, _, err := b.fed.Exec(ctx, sql); err != nil {
					return fmt.Errorf("warm-up: %s: %w", sql, err)
				}
			}
			if _, err := b.fed.Query(ctx, fmt.Sprintf("SELECT sku, name FROM catalog WHERE sku = '%s'", skuAt(writeBasePrefix[i%2], i%sz.writeRows))); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer bed.close()

	r := newReport("dml_beside_reads")
	r.set("setup_s", setupS, "s")

	w := newWriter(cfg.seed, sz.writeRows)
	rd := newReader(cfg.seed+2000, shards)

	width := cfg.window()
	var dml [numDML]windowed
	for c := range dml {
		dml[c].width = width
	}
	acks, reads := windowed{width: width}, windowed{width: width}
	var writeOps, readOps int64
	var writeFail, readFail []string
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	wg.Add(2)
	go func() { // the one writer
		defer wg.Done()
		for turn := start; ctx.Err() == nil && turn.Before(deadline); {
			class, sql, ack := w.next()
			t0 := time.Now()
			_, dr, err := bed.fed.Exec(ctx, sql)
			ms := msSince(t0)
			writeOps++
			if err := dmlOutcome(dr, err); err != nil {
				writeFail = append(writeFail, fmt.Sprintf("%s: %v", sql, err))
				turn = time.Now()
				continue
			}
			ack()
			dml[class].add(t0.Sub(start), ms)
			acks.add(t0.Sub(start), ms)
			now := time.Now()
			acks.addWork(turn.Sub(start), 1, millis(now.Sub(turn)))
			turn = now
		}
	}()
	go func() { // the one reader
		defer wg.Done()
		for ctx.Err() == nil && time.Now().Before(deadline) {
			sql, wantSKU, wantName := rd.next()
			t0 := time.Now()
			res, tr, err := bed.fed.QueryTraced(ctx, sql)
			ms := msSince(t0)
			readOps++
			switch {
			case err != nil:
				readFail = append(readFail, fmt.Sprintf("%s: %v", sql, err))
			case tr.Degraded:
				readFail = append(readFail, fmt.Sprintf("%s: %v", sql, errDegraded))
			default:
				reads.add(t0.Sub(start), ms)
				if err := checkRead(res.Rows, wantSKU, wantName); err != nil {
					readFail = append(readFail, fmt.Sprintf("%s: %v", sql, err))
				}
			}
		}
	}()
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	all, allReads := acks.whole(), reads.whole()
	r.attempted = writeOps + readOps
	r.set("throughput_per_s", acks.quietRate(1), "1/s")
	r.note("throughput_per_s = DML statements acknowledged/s by 1 closed-loop writer beside 1 reader, fsync=batch, n=%d in %.1fs", all.n(), wall)
	r.set("op_p50_ms", acks.quiet(0.5), "ms")
	// p95, not p99: the last percent of acknowledgements waits on the
	// batch flusher's fsync, which is priced by the host's disk and does
	// not repeat from run to run; it is printed below as a diagnostic.
	r.set("op_tail_ms", acks.quiet(0.95), "ms")
	r.note("op = one DML acknowledgement (dml_ack); op_tail_ms is p95")
	for c, name := range dmlNames {
		r.set(fmt.Sprintf("class%d_p50_ms", c+1), dml[c].quiet(0.5), "ms")
		r.note("class%d = %s ack, n=%d", c+1, name, dml[c].whole().n())
	}
	r.set("class4_p50_ms", reads.quiet(0.5), "ms")
	r.note("class4 = reader query beside the writer (80%% point, 20%% 10-row range), n=%d", allReads.n())
	r.noteWindows(width)
	r.info("whole_run.throughput_per_s", float64(all.n())/wall, "1/s")
	r.info("whole_run.op_p50_ms", all.p(0.5), "ms")
	r.info("whole_run.op_tail_ms", all.p(0.95), "ms")
	for _, q := range []float64{0.99, 0.999} {
		r.info(fmt.Sprintf("dml_ack.p%g_ms", q*100), all.p(q), "ms")
	}
	r.info("reader.p99_ms", allReads.p(0.99), "ms")
	r.info("reader.queries_per_s", float64(allReads.n())/wall, "1/s")

	for _, f := range append(writeFail, readFail...) {
		r.failOp("%s", f)
	}
	if err := checkWriteBed(bed, shards, &w.model, r); err != nil {
		return nil, err
	}
	return r, nil
}

// dmlOutcome folds a DML result into one error: the statement must
// apply to exactly one row on every replica, now.
func dmlOutcome(dr *federation.DMLResult, err error) error {
	switch {
	case err != nil:
		return err
	case len(dr.QueuedReplicas) > 0 || len(dr.SkippedReplicas) > 0 || len(dr.Diverged) > 0:
		return fmt.Errorf("not applied everywhere: queued=%v skipped=%v diverged=%v", dr.QueuedReplicas, dr.SkippedReplicas, dr.Diverged)
	case dr.Rows != 1:
		return fmt.Errorf("affected %d rows, want 1", dr.Rows)
	}
	return nil
}

// checkWriteBed is the DML output check: the table equals the
// writer's model, the replicas of each fragment agree, the journal is
// drained, and after closing and reopening the WALs a fresh set of
// sites recovers to the same digests — every acknowledged write
// survives a restart.
func checkWriteBed(bed *writeBed, shards [][]storage.Row, model *writeModel, r *report) error {
	base := make(map[string]int64)
	for _, rows := range shards {
		for _, row := range rows {
			base[row[0].Str()] = row[6].Int()
		}
	}
	want := len(base) + len(model.inserted)
	got := 0
	for f := range bed.frags {
		tbl, err := bed.sites[f*replicasPerFragment].DB().Table("catalog")
		if err != nil {
			return err
		}
		tbl.Scan(func(_ int64, row storage.Row) bool {
			got++
			sku, qty := row[0].Str(), row[6].Int()
			wantQty, ok := model.qty[sku]
			if !ok {
				if wantQty, ok = base[sku]; !ok {
					r.problem("table holds %s, which the writer never inserted or already deleted", sku)
					return true
				}
			}
			if qty != wantQty {
				r.problem("%s has qty %d, the last acknowledged write set %d", sku, qty, wantQty)
			}
			return true
		})
	}
	if got != want {
		r.problem("table holds %d rows, the writer's model %d", got, want)
	}
	before, err := bed.siteDigests()
	if err != nil {
		return err
	}
	for f := range bed.frags {
		a, b := before[f*replicasPerFragment], before[f*replicasPerFragment+1]
		if !a.Equal(b) {
			r.problem("fragment %d replicas diverged: %+v vs %+v", f, a, b)
		}
	}
	if n := bed.fed.Journal().PendingTotal(); n != 0 {
		r.problem("journal holds %d pending intents after quiesce", n)
	}
	r.info("journal.pending_after_quiesce", float64(bed.fed.Journal().PendingTotal()), "count")

	if err := bed.closeLogs(); err != nil {
		return fmt.Errorf("closing wals: %w", err)
	}
	start := time.Now()
	after, err := recoverDigests(bed.walDir, bed.sites)
	if err != nil {
		return err
	}
	r.info("restart_check_s", time.Since(start).Seconds(), "s")
	for i := range before {
		if !before[i].Equal(after[i]) {
			r.problem("site %s recovered %+v, held %+v before the restart", bed.sites[i].Name(), after[i], before[i])
		}
	}
	return nil
}

// recoverDigests reopens every site's WAL into a fresh site and
// returns the recovered catalog digests. The check is not timed, so
// the sites recover two at a time, one per core.
func recoverDigests(walDir string, sites []*federation.Site) ([]storage.TableDigest, error) {
	out := make([]storage.TableDigest, len(sites))
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	slots := make(chan struct{}, clients)
	for i, old := range sites {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			out[i], errs[i] = recoverDigest(walDir, old.Name())
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func recoverDigest(walDir, name string) (storage.TableDigest, error) {
	o, err := reopen(walDir, []string{name})
	if err != nil {
		return storage.TableDigest{}, err
	}
	d, err := o.sites[0].DB().TableDigest("catalog")
	if cerr := o.close(); err == nil {
		err = cerr
	}
	return d, err
}
