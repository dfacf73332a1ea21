// Package journal is the durable half of anti-entropy replica repair:
// a per-site, per-table write-intent log. When federated DML cannot
// apply a statement to one replica (site down, breaker open, mid-write
// failure) it records an *intent* here instead of silently dropping
// the write; the federation.Reconciler later replays pending intents
// against the recovered replica, or abandons them when the statement
// as a whole failed.
//
// Layout: a Journal holds one Group per (site, global table). The
// Group owns the write-ordering lock and a monotone sequence counter;
// inside it, each fragment keeps its own append-only log. Grouping by
// (site, table) — not by fragment alone — matters for two reasons:
// an UPDATE/DELETE executes once against the site's whole local
// table, so replay-once bookkeeping must be coordinated across every
// fragment the site hosts, and ordering between a per-fragment INSERT
// intent and a per-site UPDATE must follow statement order, which the
// shared sequence counter preserves across the group's logs.
//
// Records are length-prefixed and CRC-checksummed (see codec.go);
// replay re-parses the log from the start and truncates a torn tail,
// marking the group Lost so the reconciler falls back to copy-repair
// rather than trusting an incomplete intent set. Replay is idempotent
// within an intact log: every intent is keyed by statement ID, and a
// durable applied/abandoned marker settles the ID before it can be
// replayed again.
package journal

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cohera/internal/obs"
	"cohera/internal/value"
)

var (
	metPending = obs.Default().Gauge("cohera_antientropy_pending_intents",
		"Write intents journaled and not yet replayed or abandoned.", nil)
	metReplays = obs.Default().Counter("cohera_antientropy_replays_total",
		"Journaled write intents replayed against recovered replicas.", nil)
)

// Op is the kind of write an Intent records.
type Op string

const (
	// OpUpsert re-applies a routed INSERT structurally: upsert the
	// recorded row into the site's local table. Naturally idempotent.
	OpUpsert Op = "upsert"
	// OpSQL re-executes a searched UPDATE/DELETE statement against the
	// site's local table. Idempotent only under replay-once, which the
	// applied markers guarantee while the log is intact.
	OpSQL Op = "sql"
)

// Intent is one deferred replica write.
type Intent struct {
	// StmtID identifies the originating statement (one ID per routed
	// row for multi-row INSERTs). Replay and abandonment key on it.
	StmtID string
	// Seq is the group-wide append order, assigned by Execute.
	Seq uint64
	// Table is the global table name; Fragment the fragment ID.
	Table, Fragment string
	// Op selects which of SQL / Row is meaningful.
	Op Op
	// SQL is the statement text for OpSQL.
	SQL string
	// Row is the routed row for OpUpsert.
	Row []value.Value
}

// Outcome classifies what Execute did with a replica write.
type Outcome int

const (
	// Applied: the gate and the direct write both succeeded inline.
	Applied Outcome = iota
	// Queued: the replica is reachable but has a backlog of pending
	// intents, so the write was journaled behind them to preserve
	// ordering. Counts as accepted.
	Queued
	// Skipped: the replica was unavailable (or the write failed with a
	// deferrable error); the intent was journaled for later replay.
	Skipped
	// Failed: a non-deferrable error; nothing was journaled.
	Failed
)

// log is one fragment's append-only record buffer plus its replay
// state. It is not self-locking: every access holds the owning
// Group's mu.
type log struct {
	buf     []byte
	pending map[string]Intent
	done    map[string]bool
	// lost records that recovery truncated a torn tail: bytes were
	// dropped, so the pending set may be incomplete and applied
	// markers may be missing. Repair must not trust replay alone.
	lost bool
}

func newLog() *log {
	return &log{pending: make(map[string]Intent), done: make(map[string]bool)}
}

// Sink receives every durable journal event, in append order, while
// the owning group's lock is held. A WAL-backed deployment points the
// sink at the write-ahead log: the frame is persisted *before* the
// in-memory buffer mutates, so an acknowledged intent is never only
// in memory. A sink error fails the append.
type Sink interface {
	// JournalAppend persists one framed record for the (site, table,
	// frag) log — the same bytes Group.Bytes would return, appended.
	JournalAppend(site, table, frag string, frame []byte) error
	// JournalReset persists that every fragment log of (site, table)
	// was cleared (copy-repair re-established the replica).
	JournalReset(site, table string) error
}

// Group serializes journal state for one (site, table) pair.
type Group struct {
	site, table string

	mu sync.Mutex
	// seq is the next append's group-wide order stamp.
	seq  uint64
	logs map[string]*log // by fragment ID
	// sink, when set, is notified of every append/reset under mu.
	sink Sink
}

// Site and Table identify the group.
func (g *Group) Site() string  { return g.site }
func (g *Group) Table() string { return g.table }

func (g *Group) logLocked(frag string) *log {
	l := g.logs[frag]
	if l == nil {
		l = newLog()
		g.logs[frag] = l
	}
	return l
}

func (g *Group) pendingLocked() int {
	n := 0
	for _, l := range g.logs {
		n += len(l.pending)
	}
	return n
}

func (g *Group) lostLocked() bool {
	for _, l := range g.logs {
		if l.lost {
			return true
		}
	}
	return false
}

// appendIntentLocked frames and retains one intent, persisting the
// frame through the sink (when set) before the in-memory state
// changes — durability first, acknowledgement second.
func (g *Group) appendIntentLocked(it Intent) error {
	l := g.logLocked(it.Fragment)
	frame, err := encodeFrame(record{kind: kindIntent, it: it})
	if err != nil {
		return err
	}
	if g.sink != nil {
		if err := g.sink.JournalAppend(g.site, g.table, it.Fragment, frame); err != nil {
			return err
		}
	}
	l.buf = append(l.buf, frame...)
	l.pending[it.StmtID] = it
	metPending.Add(1)
	return nil
}

// settleLocked durably marks stmtID applied or abandoned in frag's log.
func (g *Group) settleLocked(frag, stmtID, kind string) error {
	l := g.logLocked(frag)
	if _, ok := l.pending[stmtID]; !ok {
		return nil
	}
	frame, err := encodeFrame(record{kind: kind, it: Intent{StmtID: stmtID}})
	if err != nil {
		return err
	}
	if g.sink != nil {
		if err := g.sink.JournalAppend(g.site, g.table, frag, frame); err != nil {
			return err
		}
	}
	l.buf = append(l.buf, frame...)
	delete(l.pending, stmtID)
	l.done[stmtID] = true
	metPending.Add(-1)
	return nil
}

// Execute performs one replica write under the group's ordering lock.
// gate is the availability check (Site.CheckAvailable), direct the
// inline write, and deferOn reports whether an error is worth
// journaling an intent for (availability faults) rather than failing
// the statement.
//
// When the group already has pending intents the direct write is never
// attempted — applying a newer statement ahead of an older journaled
// one would reorder writes — so a gate-passing replica gets the intent
// Queued behind the backlog instead.
func (g *Group) Execute(it Intent, gate, direct func() error, deferOn func(error) bool) (Outcome, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	it.Seq = g.seq
	if err := gate(); err != nil {
		if !deferOn(err) {
			return Failed, err
		}
		if aerr := g.appendIntentLocked(it); aerr != nil {
			return Failed, aerr
		}
		return Skipped, err
	}
	if g.pendingLocked() > 0 {
		if err := g.appendIntentLocked(it); err != nil {
			return Failed, err
		}
		return Queued, nil
	}
	if err := direct(); err != nil {
		if !deferOn(err) {
			return Failed, err
		}
		if aerr := g.appendIntentLocked(it); aerr != nil {
			return Failed, aerr
		}
		return Skipped, err
	}
	return Applied, nil
}

// Abandon durably settles a pending intent that will never be applied
// (its statement failed on every replica). No-op if the ID is not
// pending.
func (g *Group) Abandon(frag, stmtID string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.settleLocked(frag, stmtID, kindAbandoned)
}

// Drain replays every pending intent in group-wide append order,
// marking each durably applied as it lands. apply runs under the
// group's ordering lock, so foreground Execute calls on this group
// block until the drain finishes — replayed statements can never
// interleave with new direct writes. Returns the number replayed;
// stops at the first apply/ctx error, leaving the rest pending.
func (g *Group) Drain(ctx context.Context, apply func(Intent) error) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var its []Intent
	for _, l := range g.logs {
		for _, it := range l.pending {
			its = append(its, it)
		}
	}
	sort.Slice(its, func(i, j int) bool { return its[i].Seq < its[j].Seq })
	n := 0
	for _, it := range its {
		if err := ctx.Err(); err != nil {
			return n, err
		}
		if err := apply(it); err != nil {
			return n, fmt.Errorf("journal: replay %s/%s stmt %s: %w", it.Table, it.Fragment, it.StmtID, err)
		}
		if err := g.settleLocked(it.Fragment, it.StmtID, kindApplied); err != nil {
			return n, err
		}
		metReplays.Inc()
		n++
	}
	return n, nil
}

// Pending is the number of intents awaiting replay across the group.
func (g *Group) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pendingLocked()
}

// PendingFragment is the pending count for one fragment's log.
func (g *Group) PendingFragment(frag string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if l := g.logs[frag]; l != nil {
		return len(l.pending)
	}
	return 0
}

// Lost reports whether any of the group's logs dropped bytes during
// recovery — the pending set can no longer be trusted to be complete,
// so repair must fall back to copying from a healthy replica.
func (g *Group) Lost() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lostLocked()
}

// Exclusive runs fn while holding the group's ordering lock, passing
// the current pending count and lost flag so fn can re-check its
// precondition inside the lock. If fn returns nil the group's journal
// state is reset — pending intents discarded, logs truncated, lost
// cleared — because fn re-established the replica's content by other
// means (copy-repair). A non-nil return leaves the journal untouched.
func (g *Group) Exclusive(fn func(pending int, lost bool) error) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := fn(g.pendingLocked(), g.lostLocked()); err != nil {
		return err
	}
	if g.sink != nil {
		if err := g.sink.JournalReset(g.site, g.table); err != nil {
			return err
		}
	}
	metPending.Add(int64(-g.pendingLocked()))
	g.logs = make(map[string]*log)
	return nil
}

// Bytes returns a copy of one fragment log's raw record buffer — the
// durable form a persistent deployment would fsync. Test/chaos hook.
func (g *Group) Bytes(frag string) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.logs[frag]
	if l == nil {
		return nil
	}
	return append([]byte(nil), l.buf...)
}

// SetBytes replaces one fragment log's buffer and re-runs recovery on
// it, exactly as a restart would replay a journal file: the tail is
// truncated at the first damaged record and pending/done state is
// rebuilt from what survives. Test/chaos hook.
func (g *Group) SetBytes(frag string, b []byte) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.logLocked(frag)
	l.buf = append(l.buf[:0], b...)
	g.recoverLocked(l)
}

// TruncateTail chops n bytes off the end of one fragment's log and
// re-runs recovery — the canonical torn-write simulation.
func (g *Group) TruncateTail(frag string, n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	l := g.logLocked(frag)
	if n > len(l.buf) {
		n = len(l.buf)
	}
	l.buf = l.buf[:len(l.buf)-n]
	g.recoverLocked(l)
}

// recoverLocked rebuilds a log's replay state by re-parsing its
// buffer from the start. The first damaged record (short header,
// short payload, CRC mismatch, a payload that does not decode)
// truncates the buffer there; if that drops bytes the log is marked
// lost. Intents whose applied/abandoned marker survives stay settled;
// everything else becomes pending again.
func (g *Group) recoverLocked(l *log) {
	wasPending := len(l.pending)
	pending := make(map[string]Intent)
	done := make(map[string]bool)
	off := 0
	for off < len(l.buf) {
		r, next, ok := readFrame(l.buf, off)
		if !ok {
			break
		}
		off = next
		switch r.kind {
		case kindIntent:
			it := r.it
			if !done[it.StmtID] {
				pending[it.StmtID] = it
			}
			if it.Seq > g.seq {
				g.seq = it.Seq
			}
		case kindApplied, kindAbandoned:
			done[r.it.StmtID] = true
			delete(pending, r.it.StmtID)
		}
	}
	if off < len(l.buf) {
		l.buf = l.buf[:off]
		l.lost = true
	}
	l.pending, l.done = pending, done
	metPending.Add(int64(len(pending) - wasPending))
}

// Journal is the process-wide intent store: one Group per
// (site, table).
type Journal struct {
	mu     sync.Mutex
	groups map[groupKey]*Group
	sink   Sink
}

type groupKey struct{ site, table string }

// New returns an empty journal.
func New() *Journal {
	return &Journal{groups: make(map[groupKey]*Group)}
}

// SetSink attaches a durability sink to every current and future
// group. Attach before traffic (and after Restore): events already in
// memory are not replayed into the sink.
func (j *Journal) SetSink(s Sink) {
	j.mu.Lock()
	groups := make([]*Group, 0, len(j.groups))
	for _, g := range j.groups {
		groups = append(groups, g)
	}
	j.sink = s
	j.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		g.sink = s
		g.mu.Unlock()
	}
}

// Restore replaces one (site, table, frag) log's durable bytes and
// re-runs recovery on them, exactly like SetBytes but creating the
// group on demand — the startup path for WAL-rehydrated journals.
func (j *Journal) Restore(site, table, frag string, b []byte) {
	j.Group(site, table).SetBytes(frag, b)
}

// Group returns the (site, table) group, creating it on first use.
func (j *Journal) Group(site, table string) *Group {
	j.mu.Lock()
	defer j.mu.Unlock()
	k := groupKey{site, table}
	g := j.groups[k]
	if g == nil {
		g = &Group{site: site, table: table, logs: make(map[string]*log), sink: j.sink}
		j.groups[k] = g
	}
	return g
}

// PeekGroup returns the (site, table) group or nil — it never creates
// one, so read paths (optimizer staleness checks) stay allocation-free
// for sites that never journaled anything.
func (j *Journal) PeekGroup(site, table string) *Group {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.groups[groupKey{site, table}]
}

// PendingAt is the pending intent count for one (site, table) pair.
func (j *Journal) PendingAt(site, table string) int {
	if g := j.PeekGroup(site, table); g != nil {
		return g.Pending()
	}
	return 0
}

// PendingTotal sums pending intents across every group.
func (j *Journal) PendingTotal() int {
	n := 0
	for _, g := range j.Groups() {
		n += g.Pending()
	}
	return n
}

// Groups snapshots the current group set.
func (j *Journal) Groups() []*Group {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]*Group, 0, len(j.groups))
	for _, g := range j.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, k int) bool {
		if out[i].site != out[k].site {
			return out[i].site < out[k].site
		}
		return out[i].table < out[k].table
	})
	return out
}

// Drop discards one group entirely — the "journal file deleted"
// failure the copy-repair path must survive. Test/chaos hook.
func (j *Journal) Drop(site, table string) {
	j.mu.Lock()
	k := groupKey{site, table}
	g := j.groups[k]
	delete(j.groups, k)
	j.mu.Unlock()
	if g != nil {
		g.mu.Lock()
		metPending.Add(int64(-g.pendingLocked()))
		g.logs = make(map[string]*log)
		g.mu.Unlock()
	}
}
