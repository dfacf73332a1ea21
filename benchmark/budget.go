package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/wal"
	"cohera/internal/wrapper"
)

// The traced run replays a seeded sample of each op class twice: once
// whole, through the federation, under one root span; once layer by
// layer through the public entry points the whole op goes through,
// each call under its own span. What the layer spans do not cover of
// the whole op's wall time is budget.<class>.unattributed_frac — the
// coordinator's own work between the layers (scratch-table build,
// fan-in, goroutine hand-offs), which has no public entry point yet.
//
// Spans named "… (isolated)" re-run, alone and after the fact, a call
// the parent span already contains (the bid round inside Explain, the
// wire fetch and the site scan inside a site subquery). They carry the
// parent's ID so self time is parent minus children, but lie outside
// its interval.

// The classes the traced run replays.
var (
	readClasses = []string{"point", "search", "join", "filter", "wide", "pushed10", "agg"}
	dmlClasses  = []string{"update", "insert", "delete"}
)

// budgeter holds what the replays need.
type budgeter struct {
	read  *readBed
	write *writeBed // 2 replicas, WAL
	bare  *writeBed // 2 replicas, no WAL: the storage-only side of a site exec
	gate  *admission.Controller
	log   *wal.Log // scratch log for the isolated append
	nextK int      // fresh-key counter for DML replays
}

// classOps draws n statements of one read class.
func classOps(class string, n int, cfg config) []string {
	g := newReadGen(cfg.seed+77, cfg.sz.shards, cfg.sz.perShard)
	rng := rand.New(rand.NewSource(cfg.seed + 78))
	out := make([]string, n)
	for i := range out {
		switch class {
		case "point":
			out[i] = g.point().sql
		case "search":
			out[i] = g.search().sql
		case "join":
			out[i] = g.join().sql
		case "filter":
			out[i] = g.filter().sql
		case "wide":
			out[i] = scanSQL(scanWide, rng)
		case "pushed10":
			out[i] = scanSQL(scanPushed, rng)
		default:
			out[i] = scanSQL(scanAgg, rng)
		}
	}
	return out
}

// streamed reports whether the workload sends the class through
// QueryStream (the bulk classes) rather than Query.
func streamed(class string) bool { return class == "wide" || class == "pushed10" || class == "agg" }

// wholeRead runs one read op through the federation under a root span.
func (b *budgeter) wholeRead(ctx context.Context, rec *recorder, class string, op int, sql string) (time.Duration, int, error) {
	start := time.Now()
	root := rec.begin(class, "op", op, 0)
	var n int
	var err error
	if streamed(class) {
		_, n, _, err = drain(ctx, b.read.fed, sql, false)
	} else {
		var res *exec.Result
		if res, err = b.read.fed.Query(ctx, sql); err == nil {
			n = len(res.Rows)
		}
	}
	rec.end(root)
	return time.Since(start), n, err
}

// fragFetch is one live fragment of a layered read.
type fragFetch struct {
	table string
	site  *federation.Site
	peer  *peer
	frag  *federation.Fragment
	push  sqlparse.Expr
	cols  []string
	span  int
	rows  []storage.Row
	heads []string
}

// layeredRead runs the same statement through each layer in turn and
// returns the time the top-level layer spans cover and the row count
// the coordinator step produced.
func (b *budgeter) layeredRead(ctx context.Context, rec *recorder, class string, op int, sql string) (covered time.Duration, n int, err error) {
	root := rec.begin(class, "layers", op, 0)
	defer rec.end(root)
	timed := func(name string, parent int, fn func() error) (time.Duration, int, error) {
		start := time.Now()
		id := rec.begin(class, name, op, parent)
		err := fn()
		rec.end(id)
		return time.Since(start), id, err
	}
	top := func(name string, fn func() error) error {
		d, _, err := timed(name, root, fn)
		covered += d
		return err
	}

	var sel sqlparse.SelectStmt
	if err := top("sqlparse.parse", func() error {
		stmt, err := sqlparse.Parse(sql)
		if err == nil {
			sel = stmt.(sqlparse.SelectStmt)
		}
		return err
	}); err != nil {
		return 0, 0, err
	}
	if err := top("plan.split", func() error {
		for _, c := range plan.Conjuncts(sel.Where) {
			plan.Sargable(c)
		}
		plan.SplitPushable(sel.Where, plan.FullPushCaps())
		return nil
	}); err != nil {
		return 0, 0, err
	}

	var rep *federation.ExplainReport
	d, explain, err := timed("federation.explain", root, func() (err error) {
		rep, err = b.read.fed.Explain(ctx, sqlparse.ExplainStmt{Stmt: sel})
		return err
	})
	covered += d
	if err != nil {
		return 0, 0, err
	}
	var fetches []*fragFetch
	for _, et := range rep.Tables {
		gt, err := b.read.fed.Table(et.Table)
		if err != nil {
			return 0, 0, err
		}
		var push sqlparse.Expr
		if et.Pushdown != "" {
			if push, err = sqlparse.ParseExpr(et.Pushdown); err != nil {
				return 0, 0, err
			}
		}
		frags := b.read.fed.FragmentsOf(gt)
		for i, ef := range et.Fragments {
			if ef.Pruned {
				continue
			}
			site, err := b.read.fed.Site(ef.Replicas[0].Site)
			if err != nil {
				return 0, 0, err
			}
			fetches = append(fetches, &fragFetch{table: et.Table, site: site, peer: b.read.peerOf(site.Name()),
				frag: frags[i], push: push, cols: et.Projection})
		}
	}
	for _, f := range fetches {
		if _, _, err := timed("federation.bid (isolated)", explain, func() error {
			b.read.fed.Optimizer().Rank(ctx, f.frag, f.site.TableRows(f.table))
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}

	// The executor opens every live fragment at once; so does this.
	if err := top("federation.subqueries", func() error {
		group := rec.begin(class, "fan-out", op, root)
		defer rec.end(group)
		var wg sync.WaitGroup
		errs := make([]error, len(fetches))
		for i, f := range fetches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.span = rec.begin(class, "site.subquery "+f.site.Name(), op, group)
				defer rec.end(f.span)
				st, err := f.site.SubQueryStream(ctx, f.table, f.push, f.cols, -1)
				if err != nil {
					errs[i] = err
					return
				}
				f.heads = st.Columns()
				f.rows, _, errs[i] = consume(st, true)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return 0, 0, err
	}
	for _, f := range fetches {
		if _, _, err := timed("admission.admit (isolated)", f.span, func() error {
			release, err := b.gate.Admit(ctx)
			if err == nil {
				release()
			}
			return err
		}); err != nil {
			return 0, 0, err
		}
		_, fetch, err := timed("remote.fetch (isolated)", f.span, func() error {
			st, _, err := f.peer.src.FetchPushStream(ctx, nil, wrapper.Pushdown{Where: f.push, Cols: f.cols})
			if err != nil {
				return err
			}
			_, _, err = consume(st, false)
			return err
		})
		if err != nil {
			return 0, 0, err
		}
		if _, _, err := timed("exec.site_scan (isolated)", fetch, func() error {
			local := sqlparse.SelectStmt{From: sqlparse.TableRef{Name: f.table}, Where: f.push, Limit: -1}
			for _, c := range f.cols {
				local.Items = append(local.Items, sqlparse.SelectItem{Expr: sqlparse.ColumnRef{Column: c}})
			}
			if f.cols == nil {
				local.Items = []sqlparse.SelectItem{{Expr: sqlparse.Star{}}}
			}
			st, err := f.peer.db.SelectStream(ctx, local)
			if err != nil {
				return err
			}
			_, _, err = consume(st, false)
			return err
		}); err != nil {
			return 0, 0, err
		}
	}

	// What the coordinator does with the shipped rows: load them into a
	// scratch engine and run the statement there. Streamable selects
	// (wide, pushed10) skip this — their rows go from the fan-in to the
	// caller — so for them the merge is all unattributed.
	if streamed(class) && federation.StreamableSelect(sel) {
		for _, f := range fetches {
			n += len(f.rows)
		}
		return covered, n, nil
	}
	err = top("exec.coordinator", func() error {
		scratch := exec.NewDatabase()
		scratch.SetSynonyms(b.read.fed.Synonyms())
		hasText := strings.Contains(sql, "MATCHES(") || strings.Contains(sql, "FUZZY(")
		for _, f := range fetches {
			gt, err := b.read.fed.Table(f.table)
			if err != nil {
				return err
			}
			def, err := shippedDef(gt.Def, f.heads, hasText)
			if err != nil {
				return err
			}
			if err := scratch.LoadRows(def, f.rows); err != nil {
				return err
			}
		}
		res, err := scratch.Select(sel)
		if err == nil {
			n = len(res.Rows)
		}
		return err
	})
	return covered, n, err
}

// shippedDef is the schema of what a site shipped: the projected
// columns of def in stream order, with the key when it survived the
// projection and the text index only when the statement searches.
func shippedDef(def *schema.Table, heads []string, keepText bool) (*schema.Table, error) {
	cols := make([]schema.Column, len(heads))
	for i, h := range heads {
		c, ok := def.Column(h)
		if !ok {
			return nil, fmt.Errorf("shipped column %q not in %s", h, def.Name)
		}
		if !keepText {
			c.FullText = false
		}
		cols[i] = c
	}
	if t, err := schema.NewTable(def.Name, cols, def.Key...); err == nil {
		return t, nil
	}
	return schema.NewTable(def.Name, cols)
}

// dmlStatement renders one DML statement of a class on key k.
func dmlStatement(class string, k int) string {
	sku := fmt.Sprintf("%s7%07d", writeInsertPrefix[k%2], k)
	switch class {
	case "insert":
		return fmt.Sprintf("INSERT INTO catalog (sku, supplier, name, category, qty) VALUES ('%s', 'supplier-97', 'claw hammer', '27.12.01', %d)", sku, k%1000)
	case "update":
		return fmt.Sprintf("UPDATE catalog SET qty = %d WHERE sku = '%s'", (k+1)%1000, sku)
	default:
		return fmt.Sprintf("DELETE FROM catalog WHERE sku = '%s'", sku)
	}
}

// dmlSample replays one insert → update → delete life of two fresh
// keys on the WAL-backed bed: key a whole, through Federation.Exec,
// key b layer by layer — parse, then the statement at each replica's
// engine in turn, as the coordinator applies it. It returns, per DML
// class, the whole-op time and the time the layer spans cover.
func (b *budgeter) dmlSample(ctx context.Context, rec *recorder, op int) (whole, covered map[string]time.Duration, err error) {
	whole, covered = map[string]time.Duration{}, map[string]time.Duration{}
	ka, kb := b.nextK, b.nextK+2 // same parity: same fragment, same replicas
	b.nextK += 4
	frag := ka % 2
	replicas := b.write.sites[frag*replicasPerFragment : (frag+1)*replicasPerFragment]
	bare := b.bare.sites[frag*replicasPerFragment : (frag+1)*replicasPerFragment]
	for _, class := range []string{"insert", "update", "delete"} { // a key's life, in order
		sql := dmlStatement(class, ka)
		start := time.Now()
		root := rec.begin(class, "op", op, 0)
		_, dr, err := b.write.fed.Exec(ctx, sql)
		rec.end(root)
		whole[class] = time.Since(start)
		if err := dmlOutcome(dr, err); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", sql, err)
		}
		// The no-WAL bed follows along so its tables match when the
		// isolated storage-only exec below runs on it.
		if _, dr, err := b.bare.fed.Exec(ctx, sql); dmlOutcome(dr, err) != nil {
			return nil, nil, fmt.Errorf("no-wal bed: %s: %w", sql, dmlOutcome(dr, err))
		}

		sql = dmlStatement(class, kb)
		layers := rec.begin(class, "layers", op, 0)
		start = time.Now()
		id := rec.begin(class, "sqlparse.parse", op, layers)
		_, err = sqlparse.Parse(sql)
		rec.end(id)
		covered[class] = time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		for i, site := range replicas {
			start = time.Now()
			id = rec.begin(class, "exec.site_exec "+site.Name(), op, layers)
			_, err = site.DB().Exec(sql)
			rec.end(id)
			covered[class] += time.Since(start)
			if err != nil {
				return nil, nil, fmt.Errorf("%s at %s: %w", sql, site.Name(), err)
			}
			iso := rec.begin(class, "storage.apply (isolated)", op, id)
			_, err = bare[i].DB().Exec(sql)
			rec.end(iso)
			if err != nil {
				return nil, nil, fmt.Errorf("%s at %s: %w", sql, bare[i].Name(), err)
			}
			iso = rec.begin(class, "wal.append (isolated)", op, id)
			err = b.log.Locked(func(a *wal.Appender) error {
				return a.Append(wal.Record{Kind: wal.KindDel, Table: "catalog", Row: []wal.Val{{K: "string", S: sql}}})
			})
			rec.end(iso)
			if err != nil {
				return nil, nil, err
			}
		}
		rec.end(layers)
	}
	return whole, covered, nil
}
