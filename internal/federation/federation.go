package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/ir"
	"cohera/internal/journal"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// Shared-registry series for the federated hot path. Families are
// created once at init; per-site series are looked up as sites appear.
var (
	metQueries = obs.Default().Counter("cohera_federation_queries_total",
		"Federated SELECT executions (UNION branches count individually).", nil)
	metQueryErrs = obs.Default().Counter("cohera_federation_query_errors_total",
		"Federated SELECT/UNION statements that failed.", nil)
	metQuerySeconds = obs.Default().Histogram("cohera_federation_query_seconds",
		"End-to-end federated query latency at the coordinator.", nil)
	metFailovers = obs.Default().Counter("cohera_federation_failovers_total",
		"Replicas tried and found down during gather.", nil)
	metPruned = obs.Default().Counter("cohera_federation_pruned_fragments_total",
		"Fragments skipped by predicate pruning.", nil)
	metCellsShipped = obs.Default().Counter("cohera_federation_cells_shipped_total",
		"Row-column cells moved from sites to the coordinator.", nil)
	metCellsSaved = obs.Default().Counter("cohera_federation_pushdown_cells_saved_total",
		"Cells projection pushdown avoided shipping.", nil)
	metDegraded = obs.Default().Counter("cohera_federation_degraded_queries_total",
		"Federated SELECTs that returned partial results under PartialResults mode.", nil)
	metDegradedFragments = obs.Default().Counter("cohera_federation_degraded_fragments_total",
		"Fragments dropped from partial results because no replica could serve them.", nil)
)

// metSiteRows returns the per-site rows-fetched counter.
func metSiteRows(site string) *obs.Counter {
	return obs.Default().Counter("cohera_federation_rows_fetched_total",
		"Rows fetched from each site during gather.", obs.Labels{"site": site})
}

// Fragment is one horizontal fragment of a global table, stored (or
// sourced) at one or more replica sites under the global table's name.
type Fragment struct {
	// ID names the fragment within its table.
	ID string
	// Predicate optionally describes which rows the fragment holds (used
	// by fragment pruning; nil means "may hold anything").
	Predicate sqlparse.Expr

	// fed and table are set once by attach (under Federation.mu, before
	// the fragment is visible to queries) and immutable afterwards; they
	// let read paths ask the journal about replica staleness.
	fed   *Federation
	table string

	mu       sync.RWMutex
	replicas []*Site
}

// attach links the fragment to its federation and global table name.
// Called while holding Federation.mu, before queries can see the
// fragment.
func (f *Fragment) attach(fed *Federation, table string) {
	if f.fed == nil {
		f.fed = fed
		f.table = table
	}
}

// PendingAt reports how many journaled write intents await replay at
// replica s for this fragment's table. The count is group-level —
// a site stores one local table per global name, so any backlog on it
// makes every fragment the site hosts stale until the reconciler
// drains it. Zero for fragments not yet attached to a federation.
func (f *Fragment) PendingAt(s *Site) int {
	if f.fed == nil {
		return 0
	}
	return f.fed.journal.PendingAt(s.Name(), f.table)
}

// Replicas returns the current replica sites.
func (f *Fragment) Replicas() []*Site {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*Site(nil), f.replicas...)
}

// AddReplica registers an additional replica site — the "add more
// hardware without a reboot" path: the optimizer sees the new replica on
// the very next query.
func (f *Fragment) AddReplica(s *Site) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replicas = append(f.replicas, s)
}

// GlobalTable is a table of the federation's global schema. Fragments is
// the list fixed at definition time; grow it afterwards through
// Federation.AddFragment (which synchronizes with in-flight queries) and
// read it concurrently through Federation.FragmentsOf.
type GlobalTable struct {
	Def       *schema.Table
	Fragments []*Fragment

	writes writeCount // federated DML statements on this table

	// routing is the set of lowercase columns any fragment predicate
	// reads, rebuilt (never mutated) by DefineTable and AddFragment
	// under Federation.mu; read it through Federation.routingColumns.
	routing map[string]bool
}

// ErrRoutingColumnUpdate rejects an UPDATE that assigns a column some
// fragment predicate of the table reads. Rewriting such a column in
// place would leave the row in a fragment whose predicate no longer
// holds it (DESIGN.md §11, the fragment invariant): pruning would then
// skip it, and a later INSERT of its key would land a second copy in
// the fragment the predicate now names.
var ErrRoutingColumnUpdate = errors.New("federation: UPDATE assigns a fragment routing column")

// ErrRowOutsideFragment rejects a LoadFragment row its fragment's
// predicate does not hold, and an INSERT row no fragment claims
// (DESIGN.md §11, the fragment invariant).
var ErrRowOutsideFragment = errors.New("federation: row outside its fragment's predicate")

// withRouting returns routing plus the columns the predicates read, as
// a new set.
func withRouting(routing map[string]bool, frags ...*Fragment) map[string]bool {
	out := make(map[string]bool, len(routing))
	for c := range routing {
		out[c] = true
	}
	for _, frag := range frags {
		for _, ref := range plan.Columns(frag.Predicate) {
			out[strings.ToLower(ref.Column)] = true
		}
	}
	return out
}

// routingColumns returns the table's routing column set.
func (f *Federation) routingColumns(gt *GlobalTable) map[string]bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return gt.routing
}

// writeCount tracks the federated statements writing one table, so a
// copy-repair can tell a write still on its way through the replicas
// (applied at one, not yet at the next) from a divergence that stays.
// begin raises active before started; a reader that loads started,
// then sees active at zero, has therefore missed no statement that
// began before its load.
type writeCount struct {
	active  atomic.Int64  // statements not yet through every replica
	started atomic.Uint64 // statements ever begun
}

// begin marks a statement under way; the returned func marks it done.
func (w *writeCount) begin() func() {
	w.active.Add(1)
	w.started.Add(1)
	return func() { w.active.Add(-1) }
}

// ErrNoReplica is returned when every replica of a fragment is
// unavailable (down, breaker-open, or failing). Errors carrying it wrap
// the fragment ID and the last replica error, so callers can both
// classify with errors.Is and report which fragment was lost.
var ErrNoReplica = errors.New("federation: no live replica")

// isAvailabilityErr reports whether err is an availability-class
// failure — the kind partial-results mode may degrade around, as
// opposed to semantic errors (unknown column, bad filter) which must
// fail the query.
func isAvailabilityErr(err error) bool {
	return errors.Is(err, ErrSiteDown) || errors.Is(err, ErrBreakerOpen) ||
		errors.Is(err, ErrSiteFailure) || errors.Is(err, ErrNoReplica) ||
		errors.Is(err, admission.ErrOverloaded)
}

// Optimizer ranks the replicas of a fragment for a subquery expected to
// produce about estRows rows. The executor tries sites in the returned
// order, so ranking quality is plan quality.
type Optimizer interface {
	// Name identifies the optimizer in experiment output.
	Name() string
	// Rank orders candidate sites, best first. Implementations may omit
	// sites they know to be down.
	Rank(ctx context.Context, frag *Fragment, estRows int) []*Site
}

// Federation is the coordinator: global schema, site registry, optimizer
// and the shared synonym table for federated text search.
type Federation struct {
	// DisableProjectionPushdown turns off column pruning of shipped
	// subquery results — kept as an ablation switch; leave false.
	DisableProjectionPushdown bool

	// DisablePredicatePushdown keeps every WHERE predicate (and with it
	// any LIMIT, which is only sound below a complete filter) at the
	// coordinator: sites ship unfiltered fragments and the residual
	// stage re-evaluates the full predicate. The differential harness
	// and bench E17 compare runs with this on and off; leave false. Set
	// before serving queries. Fragment pruning still uses the predicate
	// — skipping a provably disjoint fragment is a planning decision,
	// not an evaluation site.
	DisablePredicatePushdown bool

	// PartialResults opts federated SELECTs into graceful degradation:
	// when every replica of a fragment is unavailable, the query returns
	// the live fragments' rows instead of failing, marking the trace
	// Degraded and recording the lost fragment's typed error in
	// FragmentErrors. Semantic errors still fail the query. Set it
	// before serving queries, alongside the other construction-time
	// switches.
	PartialResults bool

	// StreamBatchRows sets the rows-per-batch of the streaming
	// scatter-gather (coordinator memory is O(batch × fragments));
	// 0 means storage.DefaultBatchRows. Set before serving queries.
	StreamBatchRows int

	// DisableQueryObservability turns off in-flight query registration
	// (obs.ActiveQueries) and with it all per-operator stage accounting
	// — kept as an ablation switch so the instrumentation overhead can
	// be measured (bench E15); leave false. Set before serving queries.
	DisableQueryObservability bool

	// Slow, when set, receives a record for every finished federated
	// SELECT at or above its threshold, carrying the trace id and the
	// top-3 slowest operator stages. Set before serving queries.
	Slow *obs.SlowLog

	// syn is set once in New and immutable afterwards (the Synonyms
	// structure synchronizes itself).
	syn *ir.Synonyms

	// journal is set once in New and immutable afterwards (the Journal
	// synchronizes itself). It records write intents for replicas DML
	// could not reach; the Reconciler drains it.
	journal *journal.Journal

	// stmtSeq hands out process-unique statement IDs for journaled
	// intents (self-synchronized).
	stmtSeq atomic.Int64

	// gate, when set via SetAdmission, bounds concurrent work at the
	// public entry points (Query/QueryStream/Exec). Set before serving
	// traffic and immutable afterwards (the Controller synchronizes
	// itself); nil means admission is disabled.
	gate *admission.Controller

	mu     sync.RWMutex
	sites  map[string]*Site
	tables map[string]*GlobalTable
	opt    Optimizer
}

// New creates a federation using the given optimizer (NewAgoric or
// NewCentralized; agoric is the paper's recommendation).
func New(opt Optimizer) *Federation {
	return &Federation{
		sites:   make(map[string]*Site),
		tables:  make(map[string]*GlobalTable),
		opt:     opt,
		syn:     ir.NewSynonyms(),
		journal: journal.New(),
	}
}

// Journal returns the federation's write-intent journal.
func (f *Federation) Journal() *journal.Journal { return f.journal }

// SetAdmission installs an admission gate in front of the federation's
// public entry points (Query, QueryTraced, QueryStream, SelectStream,
// Exec, ExecTraced) and, when the optimizer is agoric, wires the
// gate's congestion signal into bid pricing so overload raises market
// prices. Call before serving traffic; nil disables admission.
func (f *Federation) SetAdmission(c *admission.Controller) {
	f.gate = c
	if a, ok := f.optimizer().(*Agoric); ok {
		if c != nil {
			a.Congestion = c.Congestion
		} else {
			a.Congestion = nil
		}
	}
}

// Admission returns the installed admission gate, nil when disabled.
func (f *Federation) Admission() *admission.Controller { return f.gate }

// admittedKey marks a context that already holds an admission slot.
type admittedKey struct{}

// admit charges the admission gate once per external request. Nested
// federated calls — UNION branches, DML delegating a SELECT, Select
// under SelectStream — ride the outer grant, so one
// client request consumes exactly one slot. The returned release is
// idempotent; on a shed it returns the gate's typed overload error.
func (f *Federation) admit(ctx context.Context) (context.Context, func(), error) {
	if f.gate == nil || ctx.Value(admittedKey{}) != nil {
		return ctx, func() {}, nil
	}
	release, err := f.gate.Admit(ctx)
	if err != nil {
		return ctx, nil, err
	}
	return context.WithValue(ctx, admittedKey{}, true), release, nil
}

// nextStmtID mints a statement ID for journaled intents.
func (f *Federation) nextStmtID() string {
	return "s" + strconv.FormatInt(f.stmtSeq.Add(1), 10)
}

// Synonyms returns the federation-wide synonym table.
func (f *Federation) Synonyms() *ir.Synonyms { return f.syn }

// Optimizer returns the active optimizer.
func (f *Federation) Optimizer() Optimizer { return f.optimizer() }

// SetOptimizer swaps the optimizer (used by the comparison experiments).
func (f *Federation) SetOptimizer(opt Optimizer) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opt = opt
}

func (f *Federation) optimizer() Optimizer {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.opt
}

// AddSite registers a site. Sites may join at any time; no downtime.
func (f *Federation) AddSite(s *Site) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.sites[s.Name()]; dup {
		return fmt.Errorf("federation: duplicate site %q", s.Name())
	}
	f.sites[s.Name()] = s
	return nil
}

// Sites returns all registered sites sorted by name.
func (f *Federation) Sites() []*Site {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*Site, 0, len(f.sites))
	for _, s := range f.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// SiteHealth is one row of the federation's health scoreboard: the
// graded availability view that replaces the old binary down flag.
type SiteHealth struct {
	// Site is the site name.
	Site string
	// Alive is the operator-level liveness flag (SetDown).
	Alive bool
	// Breaker is the circuit breaker's current position.
	Breaker resilience.State
	// ConsecutiveFailures is the breaker's failure streak.
	ConsecutiveFailures int
	// Score is the site's HealthScore in [0, 1].
	Score float64
}

// Scoreboard snapshots every site's health, sorted by name — what the
// chaos harness and introspection endpoints report on.
func (f *Federation) Scoreboard() []SiteHealth {
	sites := f.Sites()
	out := make([]SiteHealth, 0, len(sites))
	for _, s := range sites {
		out = append(out, SiteHealth{
			Site:                s.Name(),
			Alive:               s.Alive(),
			Breaker:             s.Breaker().State(),
			ConsecutiveFailures: s.Breaker().ConsecutiveFailures(),
			Score:               s.HealthScore(),
		})
	}
	return out
}

// Site returns a registered site by name.
func (f *Federation) Site(name string) (*Site, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	s, ok := f.sites[name]
	if !ok {
		return nil, fmt.Errorf("federation: no site %q", name)
	}
	return s, nil
}

// DefineTable registers a global table with its fragments. Each
// fragment's replicas must host a local table (or source) named like the
// global table with the fragment's rows.
func (f *Federation) DefineTable(def *schema.Table, fragments ...*Fragment) (*GlobalTable, error) {
	if len(fragments) == 0 {
		return nil, fmt.Errorf("federation: table %q needs at least one fragment", def.Name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := strings.ToLower(def.Name)
	if _, dup := f.tables[key]; dup {
		return nil, fmt.Errorf("federation: duplicate global table %q", def.Name)
	}
	gt := &GlobalTable{Def: def, Fragments: fragments, routing: withRouting(nil, fragments...)}
	for _, frag := range fragments {
		frag.attach(f, def.Name)
	}
	f.tables[key] = gt
	return gt, nil
}

// GlobalTables snapshots the defined global tables, sorted by name —
// the reconciler's iteration order.
func (f *Federation) GlobalTables() []*GlobalTable {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]*GlobalTable, 0, len(f.tables))
	for _, gt := range f.tables {
		out = append(out, gt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Def.Name < out[j].Def.Name })
	return out
}

// Table returns a global table by name.
func (f *Federation) Table(name string) (*GlobalTable, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	gt, ok := f.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", schema.ErrNoTable, name)
	}
	return gt, nil
}

// AddFragment appends a fragment to a defined global table — the
// incremental-growth path (a new enterprise joins). Safe to call while
// queries run; the next query sees the new fragment.
func (f *Federation) AddFragment(table string, frag *Fragment) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	gt, ok := f.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("%w: %q", schema.ErrNoTable, table)
	}
	frag.attach(f, gt.Def.Name)
	gt.Fragments = append(gt.Fragments, frag)
	gt.routing = withRouting(gt.routing, frag)
	return nil
}

// FragmentsOf returns a snapshot of a global table's fragment list.
func (f *Federation) FragmentsOf(gt *GlobalTable) []*Fragment {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return append([]*Fragment(nil), gt.Fragments...)
}

// NewFragment builds a fragment hosted at the given replicas.
func NewFragment(id string, predicate sqlparse.Expr, replicas ...*Site) *Fragment {
	return &Fragment{ID: id, Predicate: predicate, replicas: replicas}
}

// LoadFragment inserts rows into every replica of a fragment, creating
// the local table from the global schema when missing. Workload
// generators use it to place data. Every row must satisfy the
// fragment's predicate; the rows are checked before any replica is
// written, and one that fails loads nothing and returns an error
// wrapping ErrRowOutsideFragment.
func (f *Federation) LoadFragment(table string, frag *Fragment, rows []storage.Row) error {
	gt, err := f.Table(table)
	if err != nil {
		return err
	}
	if frag.Predicate != nil {
		var ev plan.Evaluator
		holds, err := ev.BindPred(frag.Predicate, plan.NewScope(gt.Def, ""))
		if err != nil {
			return fmt.Errorf("federation: fragment %s predicate: %w", frag.ID, err)
		}
		for i, row := range rows {
			if len(row) != len(gt.Def.Columns) {
				return fmt.Errorf("federation: loading %s: row %d has %d columns, %s has %d",
					frag.ID, i, len(row), gt.Def.Name, len(gt.Def.Columns))
			}
			ok, err := holds(row, 0)
			if err == nil && !ok {
				err = errors.New("predicate does not hold")
			}
			if err != nil {
				return fmt.Errorf("%w: %s row %d (%v): %v", ErrRowOutsideFragment, frag.ID, i, row, err)
			}
		}
	}
	for _, site := range frag.Replicas() {
		// LoadRows batches the whole fragment under one WAL commit-latch
		// scope: one log write, at most one fsync per replica.
		if err := site.DB().LoadRows(gt.Def.Clone(gt.Def.Name), rows); err != nil {
			return fmt.Errorf("federation: loading %s at %s: %w", frag.ID, site.Name(), err)
		}
	}
	return nil
}

// QueryTrace records the routing decisions of one query, for the
// load-balancing and failover experiments.
type QueryTrace struct {
	// TraceID identifies the query's span tree in the obs tracer —
	// the handle /debug/trace/{id} and \explain surface.
	TraceID string
	// FragmentSites maps "table/fragment" to the site that served it.
	// DML writes fan out to every live replica, so there the value is
	// the comma-joined list of replicas written.
	FragmentSites map[string]string
	// Failovers counts replicas that were tried and found down.
	Failovers int
	// PrunedFragments counts fragments skipped by predicate pruning.
	PrunedFragments int
	// CellsShipped counts row×column cells moved from sites to the
	// coordinator; CellsWithoutPushdown is what a full-width transfer
	// would have cost (the projection-pushdown ablation metric).
	CellsShipped         int
	CellsWithoutPushdown int
	// Degraded reports the result is partial: under PartialResults mode
	// at least one fragment had no available replica and was dropped.
	Degraded bool
	// FragmentErrors maps "table/fragment" to the typed error that made
	// the fragment unavailable (always wrapping ErrNoReplica). Only
	// populated for degraded queries.
	FragmentErrors map[string]error
	// PeakBufferedRows is the high-water mark of rows resident in the
	// scatter-gather fan-in (batches in the channel or parked in a
	// blocked send) — the bound the streaming benchmark records; the
	// largest of the statement's merges. The field settles when the
	// query (or stream) finishes.
	PeakBufferedRows int
	// StaleServed lists "table/fragment@site" entries where the replica
	// that served a fragment had journaled write intents pending — the
	// read may predate unreplayed writes. The optimizers already
	// deprioritize stale replicas, so an entry here means a stale copy
	// was the only (or overwhelmingly cheapest) one available.
	StaleServed []string
	// PushedRows maps "table/fragment" to the rows the serving site
	// shipped after applying whatever σ/π/limit its capabilities let the
	// planner push; ResidualDropped is how many of those the
	// coordinator's residual filter then discarded. pushed − dropped is
	// the fragment's contribution to the merge, so on failover-free runs
	// the differences sum to the pre-offset/limit result cardinality.
	PushedRows      map[string]int
	ResidualDropped map[string]int
}

// notePushed records one fragment's pushed-vs-residual row accounting.
func (t *QueryTrace) notePushed(key string, pushed, dropped int) {
	if t.PushedRows == nil {
		t.PushedRows = make(map[string]int)
	}
	t.PushedRows[key] += pushed
	if dropped > 0 {
		if t.ResidualDropped == nil {
			t.ResidualDropped = make(map[string]int)
		}
		t.ResidualDropped[key] += dropped
	}
}

// merge folds one UNION branch's trace into t: counts add up, per
// fragment entries merge (a fragment read by two branches sums), and
// the buffering high-water mark is the larger of the two.
func (t *QueryTrace) merge(b *QueryTrace) {
	for k, v := range b.FragmentSites {
		t.FragmentSites[k] = v
	}
	t.Failovers += b.Failovers
	t.PrunedFragments += b.PrunedFragments
	t.CellsShipped += b.CellsShipped
	t.CellsWithoutPushdown += b.CellsWithoutPushdown
	for k, fe := range b.FragmentErrors {
		t.noteFragmentError(k, fe)
	}
	t.PeakBufferedRows = max(t.PeakBufferedRows, b.PeakBufferedRows)
	t.StaleServed = append(t.StaleServed, b.StaleServed...)
	for k, n := range b.PushedRows {
		t.notePushed(k, n, b.ResidualDropped[k])
	}
}

// noteFragmentError records one dropped fragment on a degraded trace.
func (t *QueryTrace) noteFragmentError(key string, err error) {
	if t.FragmentErrors == nil {
		t.FragmentErrors = make(map[string]error)
	}
	t.FragmentErrors[key] = err
	t.Degraded = true
}

// Query parses and executes a federated SELECT against the global schema.
func (f *Federation) Query(ctx context.Context, sql string) (*exec.Result, error) {
	res, _, err := f.QueryTraced(ctx, sql)
	return res, err
}

// QueryTraced is Query returning the routing trace. With an admission
// gate installed the request is admitted (or shed with a typed
// overload error) before any planning work runs.
func (f *Federation) QueryTraced(ctx context.Context, sql string) (*exec.Result, *QueryTrace, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, err
	}
	ctx, release, err := f.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	switch s := stmt.(type) {
	case sqlparse.SelectStmt:
		return f.Select(ctx, s)
	case sqlparse.UnionStmt:
		return f.Union(ctx, s)
	case sqlparse.ExplainStmt:
		rep, err := f.Explain(ctx, s)
		if err != nil {
			return nil, nil, err
		}
		return rep.Render(), rep.Trace, nil
	default:
		return nil, nil, fmt.Errorf("federation: only SELECT is federated, got %T", stmt)
	}
}

// registerQuery enters a query into the process-wide in-flight
// registry (obs.ActiveQueries), unless observability is disabled. The
// returned context cancels with a typed cause when an operator kills
// the query; the returned handle is nil when registration was skipped
// or the context already carries a registered query (its methods
// no-op, so callers use it unconditionally).
func (f *Federation) registerQuery(ctx context.Context, kind, sql string) (context.Context, *obs.ActiveQuery) {
	if f.DisableQueryObservability {
		return ctx, nil
	}
	return obs.ActiveQueries().Register(ctx, kind, sql)
}

// Union executes a federated UNION chain: each branch federates
// independently; plain UNION deduplicates the combined rows.
func (f *Federation) Union(ctx context.Context, u sqlparse.UnionStmt) (*exec.Result, *QueryTrace, error) {
	if len(u.Selects) == 0 {
		return nil, nil, fmt.Errorf("federation: empty UNION")
	}
	ctx, sp := obs.StartSpan(ctx, "federation.union")
	sp.Set("branches", strconv.Itoa(len(u.Selects)))
	defer sp.End()
	ctx, aq := f.registerQuery(ctx, "union", u.String())
	defer aq.Finish()
	aq.SetTraceID(sp.TraceID)
	ctx, ustage := obs.StartStage(ctx, "union", strconv.Itoa(len(u.Selects))+" branches")
	out := &exec.Result{}
	total := &QueryTrace{FragmentSites: make(map[string]string)}
	seen := make(map[string]bool)
	for i, sel := range u.Selects {
		r, trace, err := f.Select(ctx, sel)
		if err != nil {
			sp.SetErr(err)
			ustage.Fail(err)
			return nil, nil, err
		}
		if i == 0 {
			out.Columns = r.Columns
		} else if len(r.Columns) != len(out.Columns) {
			err := fmt.Errorf("federation: UNION branch %d has %d columns, first has %d",
				i+1, len(r.Columns), len(out.Columns))
			sp.SetErr(err)
			ustage.Fail(err)
			return nil, nil, err
		}
		total.merge(trace)
		for _, row := range r.Rows {
			if !u.All {
				key := rowKey(row)
				if seen[key] {
					continue
				}
				seen[key] = true
			}
			out.Rows = append(out.Rows, row)
		}
	}
	ustage.AddRows(int64(len(out.Rows)))
	ustage.Done()
	total.TraceID = sp.TraceID
	return out, total, nil
}

// rowKey encodes a row for duplicate elimination.
func rowKey(r storage.Row) string {
	return string(value.AppendRowKey(make([]byte, 0, 64), r))
}

// selectRun is one federated SELECT's observability: its span, its
// registry entry, the coordinator metrics and the slow-log record.
// Select and SelectStream both start one, and settle it once when the
// statement ends — Select on return, a stream when it settles.
type selectRun struct {
	f     *Federation
	sp    *obs.Span
	aq    *obs.ActiveQuery // nil when observability is off or the query nests
	sql   string
	start time.Time
	trace *QueryTrace
}

// startSelect opens sel's run under a span named span.
func (f *Federation) startSelect(ctx context.Context, sel sqlparse.SelectStmt, span string) (context.Context, *selectRun) {
	ctx, sp := obs.StartSpan(ctx, span)
	sp.Set("table", sel.From.Name)
	if f.gate != nil {
		sp.Set("tenant", admission.TenantOf(ctx))
	}
	metQueries.Inc()
	ctx, aq := f.registerQuery(ctx, "select", sel.String())
	aq.SetTraceID(sp.TraceID)
	trace := &QueryTrace{TraceID: sp.TraceID, FragmentSites: make(map[string]string)}
	return ctx, &selectRun{f: f, sp: sp, aq: aq, sql: sel.String(), start: time.Now(), trace: trace}
}

// settle ends the run: rows were returned, err (nil or io.EOF on
// success) ended it, and merge, when set, is the stage whose counters
// the span carries.
func (r *selectRun) settle(rows int, err error, merge *obs.StageStats) {
	elapsed := time.Since(r.start)
	metQuerySeconds.Observe(elapsed)
	if err != nil && err != io.EOF {
		metQueryErrs.Inc()
		r.sp.SetErr(err)
	} else {
		r.sp.Set("rows", strconv.Itoa(rows))
		if r.trace.Degraded {
			r.sp.Set("degraded", strconv.Itoa(len(r.trace.FragmentErrors)))
			metDegraded.Inc()
			metDegradedFragments.Add(int64(len(r.trace.FragmentErrors)))
		}
		r.sp.Set("peak_buffered_rows", strconv.Itoa(r.trace.PeakBufferedRows))
	}
	r.sp.SetStage(merge)
	r.sp.End()
	if r.f.Slow != nil && r.aq != nil {
		r.f.Slow.RecordStages(r.sql, elapsed, r.sp.TraceID, r.aq.Stages().Snapshot())
	}
	r.aq.Finish()
}

// Select executes a parsed federated SELECT. planSelect decomposes it
// into one scan per referenced table. A streamable statement is the
// merge of its one scan, drained; anything else loads each scan's
// merge into a scratch database and runs the statement there. The
// execution is wrapped in a span (QueryTrace.TraceID names the
// resulting tree) and feeds the coordinator-side metrics.
func (f *Federation) Select(ctx context.Context, sel sqlparse.SelectStmt) (*exec.Result, *QueryTrace, error) {
	if StreamableSelect(sel) {
		st, trace, err := f.openSelect(ctx, sel, "federation.select")
		if err != nil {
			return nil, nil, err
		}
		rows, err := storage.CollectRows(st)
		if err != nil {
			return nil, nil, err
		}
		return &exec.Result{Columns: st.Columns(), Rows: rows}, trace, nil
	}
	ctx, run := f.startSelect(ctx, sel, "federation.select")
	var res *exec.Result
	p, err := f.planSelect(sel)
	if err == nil {
		res, err = f.selectScratch(ctx, sel, p, run.trace)
	}
	if err != nil {
		run.settle(0, err, nil)
		return nil, nil, err
	}
	run.settle(len(res.Rows), nil, nil)
	return res, run.trace, nil
}

// selectScratch answers a statement the merge cannot answer alone —
// joins, aggregates, ORDER BY, DISTINCT, text predicates: each scan's
// merge loads one table of a scratch database, and the statement (or,
// under a grouping, its combine statement) runs there.
func (f *Federation) selectScratch(ctx context.Context, sel sqlparse.SelectStmt, p *selectPlan, trace *QueryTrace) (*exec.Result, error) {
	scratch := exec.NewDatabase()
	scratch.SetSynonyms(f.syn)
	for i := range p.scans {
		sc := &p.scans[i]
		tbl, err := scratch.CreateTable(sc.def.Clone(sc.def.Name))
		if err != nil {
			return nil, err
		}
		st := f.newMerge(ctx, sc, trace)
		st.start(sc, -1)
		if err := insertAll(tbl, st); err != nil {
			return nil, err
		}
	}
	stmt := sel
	if g := p.scans[0].group; g != nil {
		stmt = g.combine
	}
	_, lstage := obs.StartStage(ctx, "local-exec", lower(sel.From.Name))
	res, err := scratch.Select(stmt)
	if err != nil {
		lstage.Fail(err)
		return nil, err
	}
	lstage.AddRows(int64(len(res.Rows)))
	lstage.Done()
	return res, nil
}

// insertAll drains st into tbl and closes it. The merge has deduped
// the rows by primary key, so each inserts.
func insertAll(tbl *storage.Table, st storage.RowStream) error {
	defer st.Close()
	for {
		row, err := st.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if _, err := tbl.Insert(row); err != nil {
			return err
		}
	}
}

// tableScan is one table's share of a federated SELECT: what each of
// its fragments is asked for, and the layout of the rows they ship.
type tableScan struct {
	alias string // the alias the statement first reads the table under
	gt    *GlobalTable
	frags []*Fragment   // the table's fragments, as planned
	push  sqlparse.Expr // WHERE conjuncts the fragments apply, unqualified; nil for none
	cols  []string      // shipped columns; nil ships every column
	// def is the shipped layout: the table projected to cols — or, under
	// a grouping, the partial table — with full-text flags only on the
	// columns a text predicate reads.
	def   *schema.Table
	group *groupPlan // non-nil: the fragments fold to partial rows
}

// selectPlan is a SELECT decomposed into one scan per table it reads.
type selectPlan struct {
	scans     []tableScan
	streaming bool // StreamableSelect: the merge answers the statement
}

// planSelect decomposes sel. The WHERE conjuncts local to one table are
// pushed to that table's fragments (text predicates stay at the
// coordinator, where the scratch tables' inverted indexes are); the
// columns the statement reads ship, plus primary keys, which the merge
// dedupes on; and a decomposable aggregate over a layout where no key
// can reach the merge twice folds at the fragments. The executor and
// EXPLAIN both plan through it, so EXPLAIN shows what runs.
func (f *Federation) planSelect(sel sqlparse.SelectStmt) (*selectPlan, error) {
	type ref struct {
		alias string
		gt    *GlobalTable
		push  sqlparse.Expr
	}
	var refs []ref
	addRef := func(tr sqlparse.TableRef) error {
		gt, err := f.Table(tr.Name)
		if err != nil {
			return err
		}
		refs = append(refs, ref{alias: lower(tr.EffectiveName()), gt: gt})
		return nil
	}
	if err := addRef(sel.From); err != nil {
		return nil, err
	}
	for _, j := range sel.Joins {
		if err := addRef(j.Table); err != nil {
			return nil, err
		}
	}
	single := len(refs) == 1
	conjuncts := plan.Conjuncts(sel.Where)
	aliases := make(map[string]aliasInfo, len(refs))
	for i, r := range refs {
		aliases[r.alias] = aliasInfo{table: lower(r.gt.Def.Name), def: r.gt.Def}
		// For LEFT-joined tables, pushing WHERE predicates changes
		// semantics; only the FROM table and INNER-joined tables get them.
		if i > 0 && sel.Joins[i-1].Kind == sqlparse.JoinLeft {
			continue
		}
		local, _ := plan.SplitByTable(conjuncts, r.alias, single)
		refs[i].push = unqualify(plan.AndExprs(dropTextPredicates(local)))
	}
	needed := neededColumns(sel, aliases)

	p := &selectPlan{streaming: StreamableSelect(sel)}
	scanOf := make(map[*GlobalTable]int, len(refs))
	for _, r := range refs {
		// A table read under several aliases is scanned once, with the
		// union of their columns; it keeps a pushed predicate only if
		// every alias pushes the same one.
		if i, ok := scanOf[r.gt]; ok {
			if sc := &p.scans[i]; sc.push != nil && (r.push == nil || r.push.String() != sc.push.String()) {
				sc.push = nil
			}
			continue
		}
		sc := tableScan{alias: r.alias, gt: r.gt, frags: f.FragmentsOf(r.gt), push: r.push, def: r.gt.Def}
		if !f.DisableProjectionPushdown {
			if want, ok := needed[lower(sc.def.Name)]; ok {
				if projected, pc := projectDef(sc.def, want); projected != nil {
					sc.def, sc.cols = projected, pc
				}
			}
		}
		if single {
			sc.group = planGroup(sel, sc.gt, sc.frags)
		}
		switch {
		case sc.group != nil:
			sc.def = sc.group.def
		case !p.streaming:
			// An inverted index over the scratch table is only worth
			// building for a column a text predicate reads.
			sc.def = stripUnusedFullText(sc.def, textColumns(sel, lower(sc.def.Name), aliases))
		}
		scanOf[r.gt] = len(p.scans)
		p.scans = append(p.scans, sc)
	}
	return p, nil
}

// aliasInfo records, for one query alias, the global table it names.
type aliasInfo struct {
	table string // lowercase global table name
	def   *schema.Table
}

// neededColumns analyzes the whole statement and returns, per lowercase
// table name, the set of columns the coordinator needs. A table absent
// from the map needs every column (e.g. a bare * was used).
func neededColumns(sel sqlparse.SelectStmt, aliases map[string]aliasInfo) map[string]map[string]bool {
	need := make(map[string]map[string]bool)
	all := make(map[string]bool) // tables needing every column
	addCol := func(table, col string) {
		if need[table] == nil {
			need[table] = make(map[string]bool)
		}
		need[table][strings.ToLower(col)] = true
	}
	var handle func(e sqlparse.Expr)
	handle = func(e sqlparse.Expr) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			switch c := x.(type) {
			case sqlparse.Call:
				// COUNT(*) counts rows; its Star needs no columns.
				if c.Name == "COUNT" {
					for _, a := range c.Args {
						if _, isStar := a.(sqlparse.Star); !isStar {
							handle(a)
						}
					}
					return false
				}
			case sqlparse.Star:
				if c.Table == "" {
					for _, info := range aliases {
						all[info.table] = true
					}
				} else if info, ok := aliases[strings.ToLower(c.Table)]; ok {
					all[info.table] = true
				}
			case sqlparse.ColumnRef:
				markColumn(c, aliases, addCol, all)
			case sqlparse.TextMatch:
				markColumn(c.Col, aliases, addCol, all)
			}
			return true
		})
	}
	for _, it := range sel.Items {
		handle(it.Expr)
	}
	handle(sel.Where)
	for _, j := range sel.Joins {
		handle(j.On)
	}
	for _, g := range sel.GroupBy {
		handle(g)
	}
	handle(sel.Having)
	for _, o := range sel.OrderBy {
		handle(o.Expr)
	}
	// ORDER BY / HAVING may reference output aliases; those resolve to
	// already-collected item expressions, so no extra columns. Tables
	// referenced but needing no columns (pure COUNT(*)) get an empty set,
	// which projects down to the primary key alone.
	out := make(map[string]map[string]bool)
	for _, info := range aliases {
		if all[info.table] {
			continue
		}
		cols := need[info.table]
		if cols == nil {
			cols = make(map[string]bool)
		}
		out[info.table] = cols
	}
	return out
}

// markColumn attributes one column reference to its table(s).
func markColumn(c sqlparse.ColumnRef, aliases map[string]aliasInfo,
	addCol func(table, col string), all map[string]bool) {
	if c.Table != "" {
		if info, ok := aliases[strings.ToLower(c.Table)]; ok {
			addCol(info.table, c.Column)
		}
		return
	}
	// Bare reference: could belong to any table that has the column —
	// and ORDER BY aliases resolve to no table at all, which is fine.
	for _, info := range aliases {
		if info.def.ColumnIndex(c.Column) >= 0 {
			addCol(info.table, c.Column)
		}
	}
}

// textColumns returns the lowercase columns of the given table that
// appear in text predicates anywhere in the statement.
func textColumns(sel sqlparse.SelectStmt, table string, aliases map[string]aliasInfo) map[string]bool {
	out := make(map[string]bool)
	collect := func(e sqlparse.Expr) {
		plan.Walk(e, func(x sqlparse.Expr) bool {
			tm, ok := x.(sqlparse.TextMatch)
			if !ok {
				return true
			}
			q := strings.ToLower(tm.Col.Table)
			if q == "" {
				// Unqualified: attribute to any table owning the column.
				for _, info := range aliases {
					if info.table == table && info.def.ColumnIndex(tm.Col.Column) >= 0 {
						out[strings.ToLower(tm.Col.Column)] = true
					}
				}
			} else if info, ok := aliases[q]; ok && info.table == table {
				out[strings.ToLower(tm.Col.Column)] = true
			}
			return true
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Where)
	for _, j := range sel.Joins {
		collect(j.On)
	}
	collect(sel.Having)
	for _, g := range sel.GroupBy {
		collect(g)
	}
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	return out
}

// stripUnusedFullText clears FullText flags on columns not in keep,
// returning a fresh schema when anything changed.
func stripUnusedFullText(def *schema.Table, keep map[string]bool) *schema.Table {
	changed := false
	for _, c := range def.Columns {
		if c.FullText && !keep[strings.ToLower(c.Name)] {
			changed = true
			break
		}
	}
	if !changed {
		return def
	}
	out := def.Clone(def.Name)
	for i := range out.Columns {
		if !keep[strings.ToLower(out.Columns[i].Name)] {
			out.Columns[i].FullText = false
		}
	}
	return out
}

// projectDef builds a narrowed schema containing the needed columns plus
// the primary key, preserving declaration order. It returns (nil, nil)
// when nothing would be saved.
func projectDef(def *schema.Table, want map[string]bool) (*schema.Table, []string) {
	keep := make(map[string]bool, len(want)+len(def.Key))
	for c := range want {
		keep[c] = true
	}
	for _, k := range def.Key {
		keep[strings.ToLower(k)] = true
	}
	if len(keep) >= len(def.Columns) {
		return nil, nil
	}
	var cols []schema.Column
	var names []string
	for _, c := range def.Columns {
		if keep[strings.ToLower(c.Name)] {
			cols = append(cols, c)
			names = append(names, c.Name)
		}
	}
	if len(cols) == 0 || len(cols) == len(def.Columns) {
		return nil, nil
	}
	projected, err := schema.NewTable(def.Name, cols, def.Key...)
	if err != nil {
		return nil, nil // key outside projection etc.: fall back to full width
	}
	return projected, names
}

// estimateRows asks the fragment's first available replica for its
// local cardinality — the estimate bids and cost formulas consume.
func estimateRows(frag *Fragment, table string) int {
	for _, s := range frag.Replicas() {
		if s.Available() {
			if n := s.TableRows(table); n > 0 {
				return n
			}
		}
	}
	return 100 // default guess for sources
}

// disjoint reports whether a fragment predicate and a query predicate
// provably exclude each other — the fragment-pruning test. Each side's
// sargable conjuncts are intersected per column (so `k >= a AND k < b`
// bounds k on both ends, as BETWEEN does), and the predicates exclude
// each other when some column's two ranges have no value in common.
// Anything not sargable conservatively reports false (not disjoint).
func disjoint(fragPred, queryPred sqlparse.Expr) bool {
	fragRanges := plan.ColumnRanges(plan.Conjuncts(fragPred))
	for _, qr := range plan.ColumnRanges(plan.Conjuncts(queryPred)) {
		for _, fr := range fragRanges {
			if fr.Column != qr.Column {
				continue
			}
			if both, ok := fr.Intersect(qr); ok && both.Empty() {
				return true
			}
		}
	}
	return false
}

// dropTextPredicates removes text-match conjuncts (evaluated at the
// coordinator over the scratch tables' inverted indexes).
func dropTextPredicates(conjuncts []sqlparse.Expr) []sqlparse.Expr {
	out := conjuncts[:0]
	for _, c := range conjuncts {
		hasText := false
		plan.Walk(c, func(e sqlparse.Expr) bool {
			if _, ok := e.(sqlparse.TextMatch); ok {
				hasText = true
				return false
			}
			return true
		})
		if !hasText {
			out = append(out, c)
		}
	}
	return out
}

// unqualify strips table qualifiers from column references so the
// predicate evaluates in a site's single-table scope.
func unqualify(e sqlparse.Expr) sqlparse.Expr {
	return sqlparse.Rewrite(e, func(x sqlparse.Expr) sqlparse.Expr {
		if c, ok := x.(sqlparse.ColumnRef); ok && c.Table != "" {
			return sqlparse.ColumnRef{Column: c.Column}
		}
		return x
	})
}
