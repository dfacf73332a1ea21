package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cohera/internal/admission"
	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/ir"
	"cohera/internal/obs"
	"cohera/internal/remote"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/workload"
)

// peer is one loopback content site: the handler stack coherad serves
// (obs.Handler → remote.Server with an admission gate that is on the
// path but sized never to shed) on its own TCP listener.
type peer struct {
	name string
	url  string
	db   *exec.Database
	gate *admission.Controller
	srv  *http.Server
	done chan struct{} // closed when Serve has returned
	src  *remote.Source
}

// startPeer loads rows into a fresh engine and serves it on
// 127.0.0.1:0. indexCol, when set, gets the secondary index coherad
// builds on sku.
func startPeer(name string, def *schema.Table, rows []storage.Row, indexCol string, pushEq ...string) (*peer, error) {
	db := exec.NewDatabase()
	if err := db.LoadRows(def.Clone(def.Name), rows); err != nil {
		return nil, fmt.Errorf("peer %s: load: %w", name, err)
	}
	if indexCol != "" {
		if err := db.CreateTableIndex(def.Name, indexCol, false); err != nil {
			return nil, fmt.Errorf("peer %s: index: %w", name, err)
		}
	}
	tbl, err := db.Table(def.Name)
	if err != nil {
		return nil, err
	}
	srv := remote.NewServer()
	srv.PublishTable(tbl, pushEq...)
	gate := admission.New(admission.Config{MaxInFlight: 64})
	srv.Admission = gate
	h := obs.NewHandler(srv)
	h.Slow = obs.NewSlowLog(0)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gate.Close()
		return nil, fmt.Errorf("peer %s: listen: %w", name, err)
	}
	p := &peer{
		name: name,
		url:  "http://" + ln.Addr().String(),
		db:   db,
		gate: gate,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
	}
	go func() {
		defer close(p.done)
		serveErr := p.srv.Serve(ln)
		_ = serveErr // always http.ErrServerClosed after close(); Serve owns and closes ln
	}()
	return p, nil
}

// close stops the listener and every connection, waits for Serve to
// return, then stops the gate's dispatcher.
func (p *peer) close() {
	closeErr := p.srv.Close()
	_ = closeErr // teardown; nothing to report to
	<-p.done
	p.gate.Close()
}

// readBed is the read-side topology: a coordinator federation whose
// five sites are remote sources over loopback HTTP — four catalog
// shards and the suppliers dimension — plus the oracle database that
// holds the union of all rows in one engine.
type readBed struct {
	fed       *federation.Federation
	peers     []*peer // catalog shards, then the suppliers peer last
	frags     []*federation.Fragment
	transport *http.Transport
	shards    int
	perShard  int
}

const supplierCount = 32

// newReadBed builds the peers from pre-generated shards, dials them
// and defines the global tables. The caller owns the returned bed and
// must close it.
func newReadBed(ctx context.Context, shardRows [][]storage.Row) (_ *readBed, err error) {
	b := &readBed{
		fed:       federation.New(federation.NewAgoric()),
		transport: &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute},
		shards:    len(shardRows),
		perShard:  len(shardRows[0]),
	}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	declareSynonyms(b.fed.Synonyms())
	catDef := workload.CatalogDef()
	for s, rows := range shardRows {
		p, err := startPeer(fmt.Sprintf("shard%d", s), catDef, cloneRows(rows), "sku", "sku", "supplier")
		if err != nil {
			return nil, err
		}
		b.peers = append(b.peers, p)
		site, err := b.attach(ctx, p)
		if err != nil {
			return nil, err
		}
		pred, err := shardPredicate(s)
		if err != nil {
			return nil, err
		}
		b.frags = append(b.frags, federation.NewFragment(fmt.Sprintf("f%d", s), pred, site))
	}
	if _, err := b.fed.DefineTable(catDef, b.frags...); err != nil {
		return nil, err
	}
	supDef := suppliersDef()
	sp, err := startPeer("dim", supDef, supplierRows(supplierCount), "")
	if err != nil {
		return nil, err
	}
	b.peers = append(b.peers, sp)
	supSite, err := b.attach(ctx, sp)
	if err != nil {
		return nil, err
	}
	if _, err := b.fed.DefineTable(supDef, federation.NewFragment("dim", nil, supSite)); err != nil {
		return nil, err
	}
	return b, nil
}

// readShards generates the read bed's catalog shards, one per peer.
func readShards(cfg config) ([][]storage.Row, error) {
	prefixes := make([]string, cfg.sz.shards)
	for s := range prefixes {
		prefixes[s] = readPrefix(s)
	}
	return catalogShards(prefixes, cfg.sz.perShard, cfg.seed)
}

// shardPredicate is catalog shard s's fragment predicate: its sku
// range. BETWEEN, not a >=/< pair: the planner's disjointness test
// keeps one range per column, so a two-conjunct range loses a bound
// and point queries stop pruning.
func shardPredicate(s int) (sqlparse.Expr, error) {
	return sqlparse.ParseExpr(fmt.Sprintf("sku BETWEEN '%s' AND '%s'", skuAt(readPrefix(s), 0), skuAt(readPrefix(s), 9999999)))
}

// newTwin builds the read bed's in-process twin: the same shards, the
// same fragment predicates and the same suppliers table, but every
// site holds its rows in its own engine, so a query never crosses a
// socket. The difference between the two is what the wire costs.
func newTwin(shardRows [][]storage.Row) (*federation.Federation, error) {
	fed := federation.New(federation.NewAgoric())
	declareSynonyms(fed.Synonyms())
	catDef := workload.CatalogDef()
	var frags []*federation.Fragment
	for s := range shardRows {
		site := federation.NewSite(fmt.Sprintf("twin%d", s))
		if err := fed.AddSite(site); err != nil {
			return nil, err
		}
		pred, err := shardPredicate(s)
		if err != nil {
			return nil, err
		}
		frags = append(frags, federation.NewFragment(fmt.Sprintf("f%d", s), pred, site))
	}
	if _, err := fed.DefineTable(catDef, frags...); err != nil {
		return nil, err
	}
	for s, rows := range shardRows {
		if err := fed.LoadFragment("catalog", frags[s], cloneRows(rows)); err != nil {
			return nil, err
		}
		if err := frags[s].Replicas()[0].DB().CreateTableIndex("catalog", "sku", false); err != nil {
			return nil, err
		}
	}
	dim := federation.NewSite("twindim")
	if err := fed.AddSite(dim); err != nil {
		return nil, err
	}
	supFrag := federation.NewFragment("dim", nil, dim)
	if _, err := fed.DefineTable(suppliersDef(), supFrag); err != nil {
		return nil, err
	}
	return fed, fed.LoadFragment("suppliers", supFrag, supplierRows(supplierCount))
}

// attach dials a peer, discovers its one table and registers it as a
// source on a new coordinator site.
func (b *readBed) attach(ctx context.Context, p *peer) (*federation.Site, error) {
	sources, err := remote.Dial(p.url, "", remote.WithTransport(b.transport)).Tables(ctx)
	if err != nil {
		return nil, fmt.Errorf("peer %s: discover: %w", p.name, err)
	}
	if len(sources) != 1 {
		return nil, fmt.Errorf("peer %s: %d tables, want 1", p.name, len(sources))
	}
	src, ok := sources[0].(*remote.Source)
	if !ok {
		return nil, fmt.Errorf("peer %s: source is %T, want *remote.Source", p.name, sources[0])
	}
	p.src = src
	site := federation.NewSite(p.name)
	if err := b.fed.AddSite(site); err != nil {
		return nil, err
	}
	site.AddSource(src)
	return site, nil
}

func (b *readBed) close() {
	for _, p := range b.peers {
		p.close()
	}
	b.transport.CloseIdleConnections()
}

// declareSynonyms installs the vocabulary's synonym rings (canonical
// name and vendor variants), the content manager's table MATCHES
// expands through. The coordinator and the oracle declare the same.
func declareSynonyms(syn *ir.Synonyms) {
	for _, p := range workload.MROVocabulary() {
		syn.Declare(append([]string{p.Canonical}, p.Variants...)...)
	}
}

var errDegraded = errors.New("degraded result")

// peerOf returns the peer a coordinator site fronts.
func (b *readBed) peerOf(site string) *peer {
	for _, p := range b.peers {
		if p.name == site {
			return p
		}
	}
	return nil
}
