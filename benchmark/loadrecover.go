package main

import (
	"context"
	"fmt"
	"time"

	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/storage"
	"cohera/internal/wal"
)

// Load/recover phases, in the order class1..class4 report them.
const (
	phaseLoad = iota
	phaseReplay
	phaseCheckpoint
	phaseRestore
	numPhases
)

var phaseNames = [numPhases]string{
	"bulk load (LoadFragment through the WALs)",
	"recover by pure log replay",
	"checkpoint",
	"recover from the checkpoint snapshot",
}

// reopened is a set of fresh sites recovered from the WAL dirs of a
// write bed, holding their logs open.
type reopened struct {
	sites []*federation.Site
	logs  []*wal.Log
	stats []exec.RecoveryStats
}

func (o *reopened) close() error {
	var first error
	for _, l := range o.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	o.logs = nil
	return first
}

// reopen opens each site's WAL into a fresh site and restores it —
// what a restarted process does.
func reopen(walDir string, names []string) (_ *reopened, err error) {
	o := &reopened{}
	defer func() {
		if err != nil {
			closeErr := o.close()
			_ = closeErr // the restore error is the one to report
		}
	}()
	for _, name := range names {
		l, rec, err := openSiteLog(walDir, name)
		if err != nil {
			return nil, err
		}
		o.logs = append(o.logs, l)
		site := federation.NewSite(name)
		st, err := federation.RestoreSite(site, l, rec)
		if err != nil {
			return nil, err
		}
		o.sites = append(o.sites, site)
		o.stats = append(o.stats, st)
	}
	return o, nil
}

// checkRecovered compares recovered sites with the digests the loaded
// bed had: same row count and content on every site.
func checkRecovered(o *reopened, want []storage.TableDigest, how string, r *report) error {
	for i, s := range o.sites {
		got, err := s.DB().TableDigest("catalog")
		if err != nil {
			return err
		}
		if !got.Equal(want[i]) {
			r.problem("%s: site %s recovered %+v, loaded %+v", how, s.Name(), got, want[i])
		}
	}
	return nil
}

// loadRecoverCycle runs one cycle in a fresh directory and returns the
// four phase times in ms and the number of log records the replay
// recovery applied.
func loadRecoverCycle(cfg config, shards [][]storage.Row, r *report) (ms [numPhases]float64, replayed int, err error) {
	bed, err := newTempWriteBed("c", cfg.workDir)
	if err != nil {
		return ms, replayed, err
	}
	dir := bed.walDir
	defer bed.close() // closes whatever logs are still open, removes dir

	t := time.Now()
	for f, frag := range bed.frags {
		if err := bed.fed.LoadFragment("catalog", frag, shards[f]); err != nil {
			return ms, replayed, err
		}
	}
	ms[phaseLoad] = msSince(t)
	want, err := bed.siteDigests()
	if err != nil {
		return ms, replayed, err
	}
	names := make([]string, len(bed.sites))
	for i, s := range bed.sites {
		names[i] = s.Name()
		if want[i].Rows != len(shards[i/replicasPerFragment]) {
			r.problem("site %s loaded %d rows, want %d", s.Name(), want[i].Rows, len(shards[i/replicasPerFragment]))
		}
	}
	// Close with no checkpoint: the restart below has only the log.
	if err := bed.closeLogs(); err != nil {
		return ms, replayed, err
	}

	if ms[phaseReplay], ms[phaseCheckpoint], replayed, err = replayThenCheckpoint(dir, names, want, r); err != nil {
		return ms, replayed, err
	}
	ms[phaseRestore], err = restoreSnapshot(dir, names, want, r)
	return ms, replayed, err
}

// replayThenCheckpoint restarts the sites from their logs alone
// (timed), checks what they recovered, checkpoints them (timed) and
// closes them again.
func replayThenCheckpoint(dir string, names []string, want []storage.TableDigest, r *report) (replayMS, ckptMS float64, replayed int, err error) {
	t := time.Now()
	o, err := reopen(dir, names)
	if err != nil {
		return 0, 0, 0, err
	}
	replayMS = msSince(t)
	defer func() {
		if cerr := o.close(); err == nil {
			err = cerr
		}
	}()
	for i, st := range o.stats {
		replayed += st.Replayed
		if st.Checkpoint || st.Replayed == 0 {
			r.problem("site %s: replay recovery restored checkpoint=%v replayed=%d", names[i], st.Checkpoint, st.Replayed)
		}
	}
	if err := checkRecovered(o, want, "replay", r); err != nil {
		return 0, 0, 0, err
	}
	t = time.Now()
	for _, s := range o.sites {
		if err := federation.CheckpointSite(s); err != nil {
			return 0, 0, 0, err
		}
	}
	return replayMS, msSince(t), replayed, nil
}

// restoreSnapshot restarts the sites from their checkpoints (timed)
// and checks what they recovered.
func restoreSnapshot(dir string, names []string, want []storage.TableDigest, r *report) (restoreMS float64, err error) {
	t := time.Now()
	o, err := reopen(dir, names)
	if err != nil {
		return 0, err
	}
	restoreMS = msSince(t)
	defer func() {
		if cerr := o.close(); err == nil {
			err = cerr
		}
	}()
	for i, st := range o.stats {
		if !st.Checkpoint || st.Replayed != 0 {
			r.problem("site %s: snapshot recovery restored checkpoint=%v replayed=%d", names[i], st.Checkpoint, st.Replayed)
		}
	}
	return restoreMS, checkRecovered(o, want, "snapshot", r)
}

func runLoadRecover(ctx context.Context, cfg config) (*report, error) {
	sz := cfg.sz
	per := sz.loadRows / len(writeBasePrefix)
	// Set-up is row generation plus one whole untimed cycle, which is
	// also the warm-up: page cache, heap and allocator reach steady
	// state. Every timed cycle builds its own bed; that work is what the
	// workload measures.
	r := newReport("load_recover")
	var shards [][]storage.Row
	var setups []float64
	for i := 0; i < sz.setupReps; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := time.Now()
		s, err := catalogShards(writeBasePrefix, per, cfg.seed)
		if err != nil {
			return nil, err
		}
		if _, _, err := loadRecoverCycle(cfg, s, r); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		shards = s
	}
	r.set("setup_s", median(setups), "s")

	width := cfg.window()
	var phase [numPhases]windowed
	for p := range phase {
		phase[p].width = width
	}
	cycle := windowed{width: width}
	rows := float64(per * len(writeBasePrefix))
	n := 0
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for t := start; n < 3 || t.Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ms, _, err := loadRecoverCycle(cfg, shards, r)
		if err != nil {
			return nil, err
		}
		at, now := t.Sub(start), time.Now()
		cycle.add(at, millis(now.Sub(t)))
		cycle.addWork(at, rows, ms[phaseLoad])
		for p := range phase {
			phase[p].add(at, ms[p])
		}
		r.attempted += numPhases
		t = now
	}

	cycles, loads := cycle.whole(), phase[phaseLoad].whole()
	var loadMS float64
	for _, ms := range loads.ms {
		loadMS += ms
	}
	r.set("throughput_per_s", cycle.quietRate(1), "1/s")
	r.note("throughput_per_s = rows/s bulk-loaded, per second of load phase (load_rows_per_s): %.0f rows per cycle onto 2 fragments × %d replicas, fsync=batch, %d cycles", rows, replicasPerFragment, n)
	r.set("op_p50_ms", cycle.quiet(0.5), "ms")
	r.set("op_tail_ms", cycle.quiet(0.75), "ms")
	r.note("op = one whole load → replay → checkpoint → restore cycle incl. its checks; n=%d, op_tail_ms is p75 (a window holds about four cycles)", n)
	for p, name := range phaseNames {
		r.set(fmt.Sprintf("class%d_p50_ms", p+1), phase[p].quiet(0.5), "ms")
		r.note("class%d = %s", p+1, name)
	}
	r.noteWindows(width)
	r.info("whole_run.throughput_per_s", float64(n)*rows/(loadMS/1e3), "1/s")
	r.info("whole_run.op_p50_ms", cycles.p(0.5), "ms")
	r.info("whole_run.op_tail_ms", cycles.p(0.75), "ms")
	return r, nil
}
