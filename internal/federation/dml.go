package federation

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/journal"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// metDML returns the per-kind DML statement counter.
func metDML(kind string) *obs.Counter {
	return obs.Default().Counter("cohera_federation_dml_total",
		"Federated DML statements executed, by kind.", obs.Labels{"kind": kind})
}

var metDMLRows = obs.Default().Counter("cohera_federation_dml_rows_total",
	"Rows affected by federated DML (per fragment, not per replica).", nil)

// This file implements federated DML. The paper's integrator is
// read-mostly, but operational content changes (orders, availability
// updates) flow back through the same global schema:
//
//   - INSERT routes each row to the first fragment whose predicate
//     accepts it, a fragment without a predicate accepting anything, and
//     writes every replica, so replicas stay in sync; a row no fragment
//     accepts fails with ErrRowOutsideFragment;
//   - UPDATE and DELETE broadcast to all fragments that are not provably
//     disjoint with the statement's predicate; every replica executes the
//     statement so copies converge.
//
// Writes are best-effort across replicas, but no longer fire-and-forget:
// a replica the statement cannot reach (down, breaker-open, transient
// fault) gets a write intent journaled under its (site, table) group,
// and the Reconciler replays the backlog once the replica recovers. A
// statement only fails when a targeted fragment has no replica that
// either applied the write or accepted it into a journal behind a
// reachable backlog — and then the statement's intents are abandoned so
// a later replay cannot resurrect a write the caller saw fail.

// ErrReplicaDiverged marks a replica whose affected-row count for a
// statement disagreed with its peers — the copies no longer hold the
// same content. Inspect with errors.Is; the Reconciler's digest
// comparison is the authoritative detector and repairs the divergence.
var ErrReplicaDiverged = errors.New("federation: replica diverged")

// ReplicaDivergence describes one replica's disagreement: it reported
// Rows affected where the fragment's first-reporting replica said
// WantRows.
type ReplicaDivergence struct {
	Table    string
	Fragment string
	Site     string
	Rows     int
	WantRows int
}

// String renders the legacy display marker, e.g. "f1@west-2(diverged:0!=3)".
func (d ReplicaDivergence) String() string {
	return fmt.Sprintf("%s@%s(diverged:%d!=%d)", d.Fragment, d.Site, d.Rows, d.WantRows)
}

// Err returns the divergence as an error wrapping ErrReplicaDiverged.
func (d ReplicaDivergence) Err() error {
	return fmt.Errorf("%w: fragment %s of %s at %s: %d rows affected, want %d",
		ErrReplicaDiverged, d.Fragment, d.Table, d.Site, d.Rows, d.WantRows)
}

// DMLResult reports a federated write.
type DMLResult struct {
	// Rows is the affected-row count (per fragment, not multiplied by
	// replication factor). Counts are attributed per fragment: a site
	// hosting exactly one fragment of the table reports exactly; at a
	// site hosting several, predicated fragments are counted by
	// pre-statement predicate census and a predicate-less fragment gets
	// the clamped residual (see execWhereDML for the residual
	// ambiguity that leaves).
	Rows int
	// SkippedReplicas lists "fragment@site" copies that were
	// unavailable and missed the write; each has a journaled intent
	// awaiting replay. Divergence display markers
	// ("frag@site(diverged:n!=m)") are also kept here for backward
	// compatibility — Diverged carries them typed.
	SkippedReplicas []string
	// QueuedReplicas lists "fragment@site" copies that were reachable
	// but had a journaled backlog, so the write was queued behind it
	// (ordering) rather than applied inline. Queued writes count as
	// accepted.
	QueuedReplicas []string
	// Diverged lists replicas whose attributed affected-row count
	// disagreed with the fragment's first reporter.
	Diverged []ReplicaDivergence
}

// Exec runs a DML or SELECT statement against the federation. SELECTs
// behave like Query; INSERT/UPDATE/DELETE are routed as described above.
func (f *Federation) Exec(ctx context.Context, sql string) (*exec.Result, *DMLResult, error) {
	res, dr, _, err := f.ExecTraced(ctx, sql)
	return res, dr, err
}

// ExecTraced is Exec returning the routing trace. For DML the trace
// records, per fragment, the comma-joined replicas actually written
// (FragmentSites), unavailable replicas encountered (Failovers) and
// fragments skipped as provably disjoint from the statement predicate
// (PrunedFragments) — the same visibility QueryTraced gives selects.
func (f *Federation) ExecTraced(ctx context.Context, sql string) (*exec.Result, *DMLResult, *QueryTrace, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, nil, nil, err
	}
	switch s := stmt.(type) {
	case sqlparse.SelectStmt, sqlparse.UnionStmt, sqlparse.ExplainStmt:
		res, trace, err := f.QueryTraced(ctx, sql)
		return res, nil, trace, err
	case sqlparse.InsertStmt:
		dr, trace, err := f.tracedDML(ctx, "insert", s.Table, sql, func(ctx context.Context, trace *QueryTrace) (*DMLResult, error) {
			return f.execInsert(ctx, s, trace)
		})
		return nil, dr, trace, err
	case sqlparse.UpdateStmt:
		dr, trace, err := f.tracedDML(ctx, "update", s.Table, sql, func(ctx context.Context, trace *QueryTrace) (*DMLResult, error) {
			return f.execWhereDML(ctx, s.Table, s.Where, s, trace)
		})
		return nil, dr, trace, err
	case sqlparse.DeleteStmt:
		dr, trace, err := f.tracedDML(ctx, "delete", s.Table, sql, func(ctx context.Context, trace *QueryTrace) (*DMLResult, error) {
			return f.execWhereDML(ctx, s.Table, s.Where, s, trace)
		})
		return nil, dr, trace, err
	default:
		return nil, nil, nil, fmt.Errorf("federation: unsupported statement %T", stmt)
	}
}

// tracedDML wraps one DML execution in a span, a fresh trace, and an
// in-flight registry entry so searched writes show up (and are
// killable) in /debug/queries like selects.
func (f *Federation) tracedDML(ctx context.Context, kind, table, sql string,
	run func(context.Context, *QueryTrace) (*DMLResult, error)) (*DMLResult, *QueryTrace, error) {
	ctx, release, err := f.admit(ctx)
	if err != nil {
		return nil, nil, err
	}
	defer release()
	ctx, sp := obs.StartSpan(ctx, "federation."+kind)
	sp.Set("table", table)
	if f.gate != nil {
		sp.Set("tenant", admission.TenantOf(ctx))
	}
	defer sp.End()
	ctx, aq := f.registerQuery(ctx, kind, sql)
	defer aq.Finish()
	aq.SetTraceID(sp.TraceID)
	trace := &QueryTrace{TraceID: sp.TraceID, FragmentSites: make(map[string]string)}
	dr, err := run(ctx, trace)
	metDML(kind).Inc()
	if dr != nil {
		metDMLRows.Add(int64(dr.Rows))
	}
	sp.SetErr(err)
	return dr, trace, err
}

// noteDMLSite appends a written replica to the fragment's site list.
func noteDMLSite(trace *QueryTrace, key, site string) {
	if trace == nil {
		return
	}
	cur := trace.FragmentSites[key]
	for _, s := range strings.Split(cur, ",") {
		if s == site {
			return
		}
	}
	if cur == "" {
		trace.FragmentSites[key] = site
	} else {
		trace.FragmentSites[key] = cur + "," + site
	}
}

// deferOn reports whether a replica-write error is worth journaling an
// intent for: availability-class faults with a live statement context.
// Semantic failures and caller cancellation must fail, not defer.
func deferOn(ctx context.Context) func(error) bool {
	return func(err error) bool {
		return isAvailabilityErr(err) && ctx.Err() == nil
	}
}

// execInsert routes INSERT rows to fragments by predicate.
func (f *Federation) execInsert(ctx context.Context, s sqlparse.InsertStmt, trace *QueryTrace) (*DMLResult, error) {
	gt, err := f.Table(s.Table)
	if err != nil {
		return nil, err
	}
	defer gt.writes.begin()()
	def := gt.Def
	cols := s.Columns
	if len(cols) == 0 {
		cols = def.ColumnNames()
	}
	ev := &plan.Evaluator{}
	emptyEnv := plan.NewRowEnv(nil, nil)
	dr := &DMLResult{}
	route, err := fragmentRouter(f.FragmentsOf(gt), def)
	if err != nil {
		return dr, err
	}
	for _, exprRow := range s.Rows {
		if err := ctx.Err(); err != nil {
			return dr, err
		}
		if len(exprRow) != len(cols) {
			return dr, fmt.Errorf("federation: INSERT arity mismatch")
		}
		row := make(storage.Row, len(def.Columns))
		for i := range row {
			row[i] = value.Null
		}
		for i, cn := range cols {
			ci := def.ColumnIndex(cn)
			if ci < 0 {
				return dr, fmt.Errorf("federation: table %q has no column %q", def.Name, cn)
			}
			v, err := ev.Eval(exprRow[i], emptyEnv)
			if err != nil {
				return dr, err
			}
			if !v.IsNull() && v.Kind() != def.Columns[ci].Kind {
				if cv, err := value.Coerce(v, def.Columns[ci].Kind); err == nil {
					v = cv
				}
			}
			row[ci] = v
		}
		if err := def.Validate(row); err != nil {
			return dr, err
		}
		frag, err := route(row)
		if err != nil {
			return dr, err
		}
		// One statement ID per routed row: a multi-row INSERT's rows
		// journal and replay independently.
		stmtID := f.nextStmtID()
		accepted := 0
		var journaled []*journal.Group
		var lastUnavail error
		for _, site := range frag.Replicas() {
			grp := f.journal.Group(site.Name(), def.Name)
			it := journal.Intent{
				StmtID: stmtID, Table: def.Name, Fragment: frag.ID,
				Op: journal.OpUpsert, Row: append([]value.Value(nil), row...),
			}
			out, werr := grp.Execute(it,
				func() error { return site.CheckAvailable(ctx) },
				func() error {
					// UpsertRow is the WAL-aware path: with a log attached
					// the row is durable before the statement acknowledges.
					if err := site.DB().UpsertRow(def.Clone(def.Name), row); err != nil {
						return fmt.Errorf("federation: insert at %s: %w", site.Name(), err)
					}
					site.Breaker().RecordSuccess()
					return nil
				},
				deferOn(ctx))
			switch out {
			case journal.Applied:
				noteDMLSite(trace, def.Name+"/"+frag.ID, site.Name())
				accepted++
			case journal.Queued:
				dr.QueuedReplicas = append(dr.QueuedReplicas, frag.ID+"@"+site.Name())
				journaled = append(journaled, grp)
				accepted++
			case journal.Skipped:
				lastUnavail = werr
				dr.SkippedReplicas = append(dr.SkippedReplicas, frag.ID+"@"+site.Name())
				journaled = append(journaled, grp)
				if trace != nil {
					trace.Failovers++
				}
			default: // journal.Failed
				if cerr := ctx.Err(); cerr != nil {
					return dr, cerr
				}
				return dr, werr
			}
		}
		if accepted == 0 {
			// No replica applied or durably accepted the row: the
			// statement fails, so its intents must not linger and be
			// replayed into a write the caller saw rejected.
			if aerr := abandonAll(journaled, frag.ID, stmtID); aerr != nil {
				return dr, aerr
			}
			if lastUnavail != nil {
				return dr, fmt.Errorf("%w: fragment %s of %s: %w", ErrNoReplica, frag.ID, def.Name, lastUnavail)
			}
			return dr, fmt.Errorf("%w: fragment %s of %s", ErrNoReplica, frag.ID, def.Name)
		}
		dr.Rows++
	}
	return dr, nil
}

// abandonAll settles stmtID as abandoned in every journaled group.
func abandonAll(groups []*journal.Group, frag, stmtID string) error {
	for _, g := range groups {
		if err := g.Abandon(frag, stmtID); err != nil {
			return fmt.Errorf("federation: abandoning intent %s: %w", stmtID, err)
		}
	}
	return nil
}

// fragmentRouter returns the rule that homes a row of def in one of
// fragments: the first whose predicate holds the row, a fragment
// without a predicate holding anything. A row no fragment claims fails
// with ErrRowOutsideFragment — homed anywhere, it would sit where
// pruning cannot find it (DESIGN.md §11, the fragment invariant). The
// predicates are bound once, for every row the rule routes.
func fragmentRouter(fragments []*Fragment, def *schema.Table) (func(storage.Row) (*Fragment, error), error) {
	var ev plan.Evaluator
	sc := plan.NewScope(def, "")
	holds := make([]plan.Pred, len(fragments))
	for i, frag := range fragments {
		if frag.Predicate == nil {
			continue
		}
		h, err := ev.BindPred(frag.Predicate, sc)
		if err != nil {
			return nil, fmt.Errorf("federation: fragment %s predicate: %w", frag.ID, err)
		}
		holds[i] = h
	}
	return func(row storage.Row) (*Fragment, error) {
		for i, frag := range fragments {
			if holds[i] == nil {
				return frag, nil
			}
			ok, err := holds[i](row, 0)
			if err != nil {
				return nil, fmt.Errorf("federation: fragment %s predicate: %w", frag.ID, err)
			}
			if ok {
				return frag, nil
			}
		}
		return nil, fmt.Errorf("%w: no fragment of %s claims row %v", ErrRowOutsideFragment, def.Name, row)
	}, nil
}

// siteWhereOutcome caches one site's single execution of a searched
// UPDATE/DELETE — a site stores one local table per global name even
// when it hosts several fragments of it, so the statement runs there
// at most once (re-running a non-idempotent SET would corrupt the
// shared table).
type siteWhereOutcome struct {
	out     journal.Outcome
	err     error
	rows    int            // local affected rows (out == Applied, !noTable)
	pre     map[string]int // per-fragment pre-statement census (multi-fragment sites)
	noTable bool           // replica never materialized the table: live no-op
	grp     *journal.Group // set when an intent was journaled (Queued/Skipped)
}

// execWhereDML broadcasts an UPDATE/DELETE to every non-disjoint
// fragment's replicas.
//
// Affected-row attribution: a site's local count covers its whole
// local table. When the site hosts exactly one fragment of the table
// that count is the fragment's count, exactly. When it hosts several,
// the statement's reach into each predicated fragment is measured by a
// pre-statement census (rows matching WHERE ∧ fragment predicate) and
// a predicate-less fragment gets the residual, clamped at zero.
// Residual ambiguity that attribution cannot remove: several
// predicate-less fragments co-hosted at one site split an arbitrary
// residual (the first gets it). An UPDATE that assigns a routing
// column fails with ErrRoutingColumnUpdate before any replica runs it.
func (f *Federation) execWhereDML(ctx context.Context, table string, where sqlparse.Expr, stmt sqlparse.Statement, trace *QueryTrace) (*DMLResult, error) {
	gt, err := f.Table(table)
	if err != nil {
		return nil, err
	}
	if up, ok := stmt.(sqlparse.UpdateStmt); ok {
		routing := f.routingColumns(gt)
		for _, a := range up.Set {
			if routing[strings.ToLower(a.Column)] {
				return nil, fmt.Errorf("%w: %s.%s", ErrRoutingColumnUpdate, gt.Def.Name, a.Column)
			}
		}
	}
	defer gt.writes.begin()()
	push := unqualify(where)
	dr := &DMLResult{}
	all := f.FragmentsOf(gt)
	var targeted []*Fragment
	for _, frag := range all {
		if frag.Predicate != nil && push != nil && disjoint(frag.Predicate, push) {
			if trace != nil {
				trace.PrunedFragments++
			}
			continue
		}
		targeted = append(targeted, frag)
	}
	// hostCount: how many fragments of this table each site hosts at
	// all — the dedicated-site test; hostTargeted: the targeted ones,
	// for the census.
	hostCount := make(map[*Site]int)
	hostTargeted := make(map[*Site][]*Fragment)
	for _, frag := range all {
		for _, site := range frag.Replicas() {
			hostCount[site]++
		}
	}
	for _, frag := range targeted {
		for _, site := range frag.Replicas() {
			hostTargeted[site] = append(hostTargeted[site], frag)
		}
	}

	stmtID, sql := f.nextStmtID(), stmt.String()
	done := make(map[*Site]*siteWhereOutcome)
	type fragState struct {
		accepted int
		rows     int // first applied replica's attributed count, -1 until known
		unavail  error
	}
	states := make([]*fragState, len(targeted))

	for fi, frag := range targeted {
		st := &fragState{rows: -1}
		states[fi] = st
		if err := ctx.Err(); err != nil {
			return dr, err
		}
		for _, site := range frag.Replicas() {
			o, seen := done[site]
			if !seen {
				o = f.execWhereAtSite(ctx, site, gt.Def, frag, stmtID, stmt, sql, push, hostCount[site], hostTargeted[site])
				done[site] = o
			}
			switch o.out {
			case journal.Applied:
				st.accepted++
				if o.noTable {
					// The replica never materialized this table: a live
					// no-op (the fragment's rows cannot exist there), not
					// a divergence.
					continue
				}
				noteDMLSite(trace, gt.Def.Name+"/"+frag.ID, site.Name())
				n := attributeRows(o, frag, hostCount[site], hostTargeted[site])
				if st.rows == -1 {
					st.rows = n
				} else if st.rows != n {
					// Replicas disagree — report the divergence loudly,
					// typed and (for display compatibility) as a marker.
					d := ReplicaDivergence{
						Table: gt.Def.Name, Fragment: frag.ID, Site: site.Name(),
						Rows: n, WantRows: st.rows,
					}
					dr.Diverged = append(dr.Diverged, d)
					dr.SkippedReplicas = append(dr.SkippedReplicas, d.String())
				}
			case journal.Queued:
				st.accepted++
				dr.QueuedReplicas = append(dr.QueuedReplicas, frag.ID+"@"+site.Name())
			case journal.Skipped:
				st.unavail = o.err
				dr.SkippedReplicas = append(dr.SkippedReplicas, frag.ID+"@"+site.Name())
				if trace != nil {
					trace.Failovers++
				}
			default: // journal.Failed
				if cerr := ctx.Err(); cerr != nil {
					return dr, cerr
				}
				return dr, o.err
			}
		}
		if st.rows > 0 {
			dr.Rows += st.rows
		}
	}

	// A targeted fragment whose every replica was unavailable means the
	// write was lost, not merely degraded: abandon the statement's
	// intents at sites no accepted fragment shares (replaying a write
	// the caller saw fail would diverge the copies the other way) and
	// say so with a typed error.
	for fi, frag := range targeted {
		st := states[fi]
		if st.accepted > 0 || len(frag.Replicas()) == 0 {
			continue
		}
		for site, o := range done {
			if o.grp == nil {
				continue
			}
			keep := false
			for _, hf := range hostTargeted[site] {
				if hfState := states[indexOfFragment(targeted, hf)]; hfState != nil && hfState.accepted > 0 {
					keep = true
					break
				}
			}
			if !keep {
				if aerr := o.grp.Abandon(o.intentFragment(hostTargeted[site]), stmtID); aerr != nil {
					return dr, fmt.Errorf("federation: abandoning intent %s: %w", stmtID, aerr)
				}
			}
		}
		if st.unavail != nil {
			return dr, fmt.Errorf("%w: fragment %s of %s: write not applied: %w",
				ErrNoReplica, frag.ID, gt.Def.Name, st.unavail)
		}
		return dr, fmt.Errorf("%w: fragment %s of %s: write not applied", ErrNoReplica, frag.ID, gt.Def.Name)
	}
	return dr, nil
}

// intentFragment returns the fragment log the site's intent was
// journaled under: the first targeted fragment hosted there (the same
// choice execWhereAtSite made).
func (o *siteWhereOutcome) intentFragment(hosted []*Fragment) string {
	if len(hosted) == 0 {
		return ""
	}
	return hosted[0].ID
}

func indexOfFragment(frags []*Fragment, want *Fragment) int {
	for i, f := range frags {
		if f == want {
			return i
		}
	}
	return -1
}

// execWhereAtSite runs one site's share of a searched UPDATE/DELETE
// through the journal gate. The direct path executes the coordinator's
// parsed statement, so a statement is parsed once however many replicas
// it reaches. The intent (one per site per statement) keeps its SQL
// text, sql, under the site's first targeted fragment's log; replay
// re-parses and re-executes it against the whole local table, which is
// exactly the direct path's effect.
func (f *Federation) execWhereAtSite(ctx context.Context, site *Site, def *schema.Table, frag *Fragment,
	stmtID string, stmt sqlparse.Statement, sql string, push sqlparse.Expr, hostCount int, hosted []*Fragment) *siteWhereOutcome {
	o := &siteWhereOutcome{}
	grp := f.journal.Group(site.Name(), def.Name)
	it := journal.Intent{
		StmtID: stmtID, Table: def.Name, Fragment: frag.ID,
		Op: journal.OpSQL, SQL: sql,
	}
	if len(hosted) > 0 {
		it.Fragment = hosted[0].ID
	}
	out, err := grp.Execute(it,
		func() error { return site.CheckAvailable(ctx) },
		func() error {
			// Census before the statement mutates the table: how far
			// does the WHERE reach into each predicated fragment this
			// site co-hosts? (Skipped for dedicated sites — their local
			// count is already exact.)
			if hostCount > 1 {
				o.pre = make(map[string]int)
				for _, hf := range hosted {
					if hf.Predicate == nil {
						continue
					}
					n, cerr := countMatching(site.DB(), def, push, unqualify(hf.Predicate))
					if cerr != nil {
						if errors.Is(cerr, schema.ErrNoTable) {
							break // the exec below reports noTable
						}
						return fmt.Errorf("federation: census at %s: %w", site.Name(), cerr)
					}
					o.pre[hf.ID] = n
				}
			}
			res, xerr := site.DB().ExecStmt(stmt)
			if xerr != nil {
				if errors.Is(xerr, schema.ErrNoTable) {
					o.noTable = true
					return nil
				}
				return fmt.Errorf("federation: dml at %s: %w", site.Name(), xerr)
			}
			o.rows = int(res.Rows[0][0].Int())
			site.Breaker().RecordSuccess()
			return nil
		},
		deferOn(ctx))
	o.out, o.err = out, err
	if out == journal.Queued || out == journal.Skipped {
		o.grp = grp
	}
	return o
}

// attributeRows maps a site's local affected-row count onto one
// fragment (see execWhereDML's attribution contract).
func attributeRows(o *siteWhereOutcome, frag *Fragment, hostCount int, hosted []*Fragment) int {
	if hostCount <= 1 {
		return o.rows // dedicated site: local count is the fragment count
	}
	if frag.Predicate != nil {
		return o.pre[frag.ID]
	}
	// Predicate-less fragment at a shared site: the residual after the
	// censused fragments, clamped (a census can overcount when rows
	// satisfy several fragments' predicates).
	rest := o.rows
	for _, hf := range hosted {
		if hf.Predicate != nil {
			rest -= o.pre[hf.ID]
		}
	}
	if rest < 0 {
		rest = 0
	}
	return rest
}

// countMatching counts the site's local rows satisfying both the
// statement predicate and the fragment predicate (either may be nil =
// always true). This is the pre-statement census behind per-fragment
// row attribution.
func countMatching(db *exec.Database, def *schema.Table, push, fragPred sqlparse.Expr) (int, error) {
	tbl, err := db.Table(def.Name)
	if err != nil {
		return 0, err
	}
	ev := &plan.Evaluator{}
	cols := def.ColumnNames()
	n := 0
	var evalErr error
	tbl.Scan(func(_ int64, row storage.Row) bool {
		env := plan.NewRowEnv(cols, row)
		for _, e := range []sqlparse.Expr{push, fragPred} {
			if e == nil {
				continue
			}
			v, err := ev.Eval(e, env)
			if err != nil {
				evalErr = err
				return false
			}
			if !v.Truthy() {
				return true
			}
		}
		n++
		return true
	})
	if evalErr != nil {
		return 0, evalErr
	}
	return n, nil
}
