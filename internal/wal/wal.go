package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/obs"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before a mutation acknowledges. Concurrent
	// appenders share fsyncs (group commit): a waiter whose bytes were
	// already covered by another appender's fsync returns without
	// issuing its own.
	SyncAlways SyncPolicy = iota
	// SyncBatch acknowledges after the record is written to the OS and
	// lets a background flusher fsync on an interval. A power failure
	// (or kill -9 plus machine death) can lose up to one interval of
	// acknowledged writes; a plain process crash loses nothing, because
	// written-but-unsynced bytes survive in the page cache.
	SyncBatch
	// SyncNone never fsyncs the log outside checkpoints and Close.
	SyncNone
)

// String names the policy as the -fsync flag spells it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	default:
		return "none"
	}
}

// ParseSyncPolicy parses a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return SyncNone, fmt.Errorf("wal: unknown fsync policy %q (want always|batch|none)", s)
}

// DefaultBatchInterval is the SyncBatch flusher period when Options
// leaves it zero.
const DefaultBatchInterval = 2 * time.Millisecond

// Options configures Open.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// BatchInterval overrides the SyncBatch flusher period.
	BatchInterval time.Duration
	// Name labels this log's metrics (usually the site name); defaults
	// to the directory base name.
	Name string
}

// File names inside a WAL directory.
const (
	logFileName        = "wal.log"
	checkpointFileName = "checkpoint.json"
)

// jkey identifies one journal fragment log in the mirror.
type jkey struct{ site, table, frag string }

// JournalFrag is one journal fragment's durable bytes, as recovered
// from a checkpoint plus replayed jframe records. The JSON tags are
// the version-0 checkpoint format.
type JournalFrag struct {
	Site  string `json:"site"`
	Table string `json:"table"`
	Frag  string `json:"frag"`
	Bytes []byte `json:"bytes"`
}

// Recovered is what Open found on disk: the last checkpoint's engine
// state, the journal groups to rehydrate, and the table-op records
// appended after the checkpoint, ready to replay in LSN order.
type Recovered struct {
	// HasCheckpoint reports a checkpoint file was present.
	HasCheckpoint bool
	// CheckpointLSN is the last LSN the checkpoint covers; records at
	// or below it were dropped from Records (they are already inside
	// State), which is what makes a crash between checkpoint rename and
	// log truncation safe against double-apply.
	CheckpointLSN uint64
	// State is the checkpoint's engine snapshot (the bytes
	// exec.Database.SaveSnapshot wrote, or a version-0 JSON snapshot
	// from an older checkpoint), nil when the checkpoint carried no
	// engine state.
	State []byte
	// Journal is the rebuilt write-intent journal, one entry per
	// (site, table, fragment) log.
	Journal []JournalFrag
	// Records are the table-op records to replay, LSN-ascending.
	Records []Record
	// LastLSN is the highest LSN seen (checkpoint or record).
	LastLSN uint64
	// TornBytes counts trailing bytes truncated from the log file.
	TornBytes int
}

// HasData reports whether recovery found anything to restore.
func (r *Recovered) HasData() bool {
	return r != nil && (r.State != nil || len(r.Records) > 0 || len(r.Journal) > 0)
}

// Log is one site's write-ahead log: an append-only frame file plus
// the checkpoint protocol. The mutex is the site's commit latch —
// exec.Database holds it across append+apply for every logged
// mutation, so WAL order always equals apply order and Checkpoint
// (which takes the same latch) observes no mutation half-applied.
type Log struct {
	dir    string
	policy SyncPolicy

	// written/synced count cumulative bytes ever written/fsynced (they
	// survive checkpoint truncation, so durability waiters never
	// confuse a fresh offset with an already-synced one). synced is
	// guarded by syncMu below, not the commit latch — it is declared
	// ahead of mu so the positional guard convention reads it as
	// independently synchronized, which it is.
	written atomic.Int64
	synced  int64

	mu   sync.Mutex
	file *os.File
	// staged collects frames appended inside the current Locked scope;
	// flushed to the file with one write before the latch releases.
	staged  []byte
	nextLSN uint64
	// mirror shadows every journal group's fragment bytes so Checkpoint
	// can dump the journal without touching journal locks (the journal
	// appends under its own group lock *before* reaching this log, so a
	// checkpoint-side acquisition would invert that order).
	mirror map[jkey][]byte
	ioErr  error
	hook   func(point string)
	size   int64

	// syncMu serializes fsyncs and guards synced above. Locked releases
	// mu before waiting on durability, so the two are never held
	// together by one goroutine.
	syncMu sync.Mutex

	flushStop chan struct{}
	flushDone chan struct{}

	metAppends  *obs.Counter
	metBytes    *obs.Counter
	metFsyncs   *obs.Counter
	metFsyncLat *obs.Histogram
	metSize     *obs.Gauge
	metLSN      *obs.Gauge
}

// Open opens (creating if needed) the WAL in dir, truncates any torn
// tail, and returns the log plus everything recovery needs. The
// caller restores the Recovered state into its engine and journal
// *before* attaching the log, so replayed mutations are not re-logged.
func Open(dir string, opts Options) (*Log, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// A leftover temp file is a checkpoint that died before rename;
	// the previous checkpoint (if any) is still the durable truth.
	if err := os.Remove(filepath.Join(dir, checkpointFileName+".tmp")); err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: clearing stale checkpoint temp: %w", err)
	}
	name := opts.Name
	if name == "" {
		name = filepath.Base(dir)
	}
	labels := obs.Labels{"wal": name}
	l := &Log{
		dir:    dir,
		policy: opts.Policy,
		mirror: make(map[jkey][]byte),

		metAppends: obs.Default().Counter("cohera_wal_appends_total",
			"Records appended to the write-ahead log.", labels),
		metBytes: obs.Default().Counter("cohera_wal_bytes_total",
			"Bytes written to the write-ahead log.", labels),
		metFsyncs: obs.Default().Counter("cohera_wal_fsyncs_total",
			"fsync calls issued against the write-ahead log.", labels),
		metFsyncLat: obs.Default().Histogram("cohera_wal_fsync_latency",
			"Latency of write-ahead log fsync calls.", labels),
		metSize: obs.Default().Gauge("cohera_wal_size_bytes",
			"Current size of the write-ahead log file.", labels),
		metLSN: obs.Default().Gauge("cohera_wal_lsn",
			"Last log sequence number assigned.", labels),
	}
	rec, err := l.recover()
	if err != nil {
		return nil, nil, err
	}
	if opts.Policy == SyncBatch {
		interval := opts.BatchInterval
		if interval <= 0 {
			interval = DefaultBatchInterval
		}
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(interval)
	}
	return l, rec, nil
}

// recover loads the checkpoint, scans the log file, truncates any
// torn tail, seeds the journal mirror, and assembles Recovered. It
// runs before the Log escapes Open, so the latch is uncontended; it
// is held anyway to keep the guarded-field discipline checkable.
func (l *Log) recover() (*Recovered, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := &Recovered{}
	ckpt, err := loadCheckpoint(filepath.Join(l.dir, checkpointFileName))
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		rec.HasCheckpoint = true
		rec.CheckpointLSN = ckpt.LSN
		rec.LastLSN = ckpt.LSN
		if len(ckpt.State) > 0 {
			rec.State = ckpt.State
		}
		for _, jf := range ckpt.Journal {
			l.mirror[jkey{jf.Site, jf.Table, jf.Frag}] = append([]byte(nil), jf.Bytes...)
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, logFileName), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	buf, err := os.ReadFile(filepath.Join(l.dir, logFileName))
	if err != nil {
		closeErr := f.Close()
		_ = closeErr // the read error is the one worth reporting
		return nil, fmt.Errorf("wal: %w", err)
	}
	recs, good, torn := ScanRecords(buf)
	rec.TornBytes = torn
	if torn > 0 {
		if err := f.Truncate(int64(good)); err != nil {
			closeErr := f.Close()
			_ = closeErr
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		obs.Default().Counter("cohera_wal_torn_bytes_total",
			"Torn trailing bytes truncated from WAL files during recovery.", nil).Add(int64(torn))
	}
	for _, r := range recs {
		if r.LSN > rec.LastLSN {
			rec.LastLSN = r.LSN
		}
		if r.LSN <= rec.CheckpointLSN {
			// Already folded into the checkpoint: the crash landed
			// between checkpoint rename and log truncation.
			continue
		}
		switch r.Kind {
		case KindJFrame:
			k := jkey{r.Site, r.Table, r.Frag}
			l.mirror[k] = append(l.mirror[k], r.Frame...)
		case KindJReset:
			for k := range l.mirror {
				if k.site == r.Site && k.table == r.Table {
					delete(l.mirror, k)
				}
			}
		default:
			rec.Records = append(rec.Records, r)
		}
	}
	rec.Journal = l.mirrorDumpLocked()
	l.file = f
	l.size = int64(good)
	l.nextLSN = rec.LastLSN + 1
	l.metSize.Set(l.size)
	l.metLSN.Set(int64(rec.LastLSN))
	return rec, nil
}

// mirrorDumpLocked returns the journal mirror sorted for determinism;
// caller holds l.mu.
func (l *Log) mirrorDumpLocked() []JournalFrag {
	out := make([]JournalFrag, 0, len(l.mirror))
	for k, b := range l.mirror {
		out = append(out, JournalFrag{Site: k.site, Table: k.table, Frag: k.frag, Bytes: append([]byte(nil), b...)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		return a.Frag < b.Frag
	})
	return out
}

// Appender stages records inside one Locked scope. A nil *Appender is
// valid and drops everything — callers without a WAL skip encoding by
// checking for nil, but defensive code does not have to.
type Appender struct{ l *Log }

// Append assigns the record an LSN and stages its frame. The frame
// reaches the file when the Locked scope ends.
func (a *Appender) Append(r Record) error {
	if a == nil || a.l == nil {
		return nil
	}
	l := a.l
	if l.ioErr != nil {
		return l.ioErr
	}
	r.LSN = l.nextLSN
	staged, err := appendFrame(l.staged, r)
	if err != nil {
		return err
	}
	l.staged = staged
	l.nextLSN++
	switch r.Kind {
	case KindJFrame:
		k := jkey{r.Site, r.Table, r.Frag}
		l.mirror[k] = append(l.mirror[k], r.Frame...)
	case KindJReset:
		for k := range l.mirror {
			if k.site == r.Site && k.table == r.Table {
				delete(l.mirror, k)
			}
		}
	}
	l.metAppends.Inc()
	return nil
}

// Locked runs fn holding the commit latch, then flushes every staged
// frame with one write and waits for durability per policy. fn applies
// mutations to the in-memory engine *before* staging their records, so
// whatever prefix of fn completed is exactly what the log holds — even
// when fn returns an error mid-statement.
func (l *Log) Locked(fn func(a *Appender) error) error {
	l.mu.Lock()
	if l.ioErr != nil {
		err := l.ioErr
		l.mu.Unlock()
		return err
	}
	fnErr := fn(&Appender{l: l})
	target, flushErr := l.flushStagedLocked()
	l.mu.Unlock()
	if flushErr != nil {
		return flushErr
	}
	if err := l.waitDurable(target); err != nil {
		return err
	}
	return fnErr
}

// flushStagedLocked writes the staged frames and returns the cumulative
// write offset a durability waiter must reach. Caller holds l.mu.
func (l *Log) flushStagedLocked() (int64, error) {
	if len(l.staged) == 0 {
		return l.written.Load(), nil
	}
	l.crashLocked("append.before")
	n, err := l.file.Write(l.staged)
	if err != nil {
		l.ioErr = fmt.Errorf("wal: append: %w", err)
		return 0, l.ioErr
	}
	l.size += int64(n)
	l.metBytes.Add(int64(n))
	l.metSize.Set(l.size)
	l.metLSN.Set(int64(l.nextLSN - 1))
	l.staged = l.staged[:0]
	target := l.written.Add(int64(n))
	l.crashLocked("append.after")
	return target, nil
}

// waitDurable blocks until cumulative offset target is fsynced, per
// policy. Under SyncAlways concurrent waiters coalesce: whoever gets
// the sync lock first fsyncs for everyone written so far.
func (l *Log) waitDurable(target int64) error {
	if l.policy != SyncAlways {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.synced >= target {
		return nil
	}
	return l.syncLocked()
}

// syncLocked fsyncs the log file; caller holds l.syncMu. The covered
// offset is read before the fsync starts — bytes written after that
// may or may not be persisted, so they stay unaccounted.
func (l *Log) syncLocked() error {
	covered := l.written.Load()
	start := time.Now()
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.metFsyncs.Inc()
	l.metFsyncLat.Observe(time.Since(start))
	if covered > l.synced {
		l.synced = covered
	}
	return nil
}

// flushLoop is the SyncBatch background fsyncer.
func (l *Log) flushLoop(interval time.Duration) {
	defer close(l.flushDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-l.flushStop:
			return
		case <-tick.C:
			l.syncMu.Lock()
			if l.written.Load() > l.synced {
				err := l.syncLocked()
				_ = err // next interval retries; Close surfaces the final state
			}
			l.syncMu.Unlock()
		}
	}
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncLocked()
}

// Close stops the flusher, fsyncs, and closes the file.
func (l *Log) Close() error {
	if l.flushStop != nil {
		close(l.flushStop)
		<-l.flushDone
		l.flushStop = nil
	}
	syncErr := l.Sync()
	l.mu.Lock()
	defer l.mu.Unlock()
	closeErr := l.file.Close()
	if l.ioErr == nil {
		l.ioErr = fmt.Errorf("wal: closed")
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// AppendJournalFrame durably records one journal frame for the
// (site, table, frag) intent log. Called by the journal sink while the
// group's ordering lock is held, before the group's own buffer mutates
// — a failure here fails the journal append, so no intent is ever
// acknowledged without being on disk.
func (l *Log) AppendJournalFrame(site, table, frag string, frame []byte) error {
	return l.Locked(func(a *Appender) error {
		return a.Append(Record{Kind: KindJFrame, Site: site, Table: table, Frag: frag,
			Frame: append([]byte(nil), frame...)})
	})
}

// JournalReset durably clears every fragment log of the (site, table)
// journal group.
func (l *Log) JournalReset(site, table string) error {
	return l.Locked(func(a *Appender) error {
		return a.Append(Record{Kind: KindJReset, Site: site, Table: table})
	})
}

// LSN returns the last assigned log sequence number.
func (l *Log) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Size returns the current log file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Policy returns the fsync policy.
func (l *Log) Policy() SyncPolicy { return l.policy }

// SetCrashHook installs a test-only callback invoked at named points
// of the append and checkpoint protocols ("append.before",
// "append.after", "checkpoint.staged", "checkpoint.renamed") so crash
// tests can capture the directory exactly as kill -9 would leave it.
func (l *Log) SetCrashHook(fn func(point string)) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = fn
}

// crashLocked fires the crash hook; caller holds l.mu (every hook
// point sits inside the commit latch or the checkpoint protocol).
func (l *Log) crashLocked(point string) {
	if l.hook != nil {
		l.hook(point)
	}
}
