package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// metServerReqs counts served requests per endpoint and status class.
// Unknown paths collapse to "other" so clients probing random URLs
// cannot grow the label space without bound.
func metServerReqs(path, class string) *obs.Counter {
	switch path {
	case "/healthz", "/tables", "/fetchstream", "/digest", "/debug/replication":
	default:
		path = "other"
	}
	return obs.Default().Counter("cohera_remote_server_requests_total",
		"Remote server requests by endpoint and status class.",
		obs.Labels{"path": path, "class": class})
}

var metServerSeconds = obs.Default().Histogram("cohera_remote_server_seconds",
	"Remote server request handling latency.", nil)

// Server exposes a set of tables (anything implementing wrapper.Source —
// stored tables, wrapped ERPs, even other federations' views) over HTTP:
//
//	GET  /tables             → JSON list of wireSchema
//	POST /fetchstream        → {table, filters[], where, cols, limit, group} → frames (frame.go)
//	POST /digest             → {table} → {hash, rows} content digest
//	GET  /debug/replication  → per-table digests for operator comparison
//	GET  /healthz            → 200 ok
//
// /fetchstream completes whatever it is asked, with no acknowledgement:
// the filters join the pushed WHERE, and wrapper.OpenPushStream
// evaluates here anything the published source cannot, so every table
// takes the full σ/π/limit/γ request and /tables advertises nothing
// beyond each table's schema, equality columns and volatility.
//
// An optional bearer token gates every endpoint; cross-enterprise feeds
// are not anonymous.
type Server struct {
	// Token, when non-empty, must arrive as "Authorization: Bearer ..".
	// It must be set before the server starts serving; handlers read it
	// without synchronization.
	Token string
	// StreamBatchRows is the rows-per-chunk /fetchstream uses; 0 means
	// storage.DefaultBatchRows, and sizes above 8192 are capped.
	// Like Token it must be set before serving.
	StreamBatchRows int
	// Admission, when set, gates the data-plane endpoint (/fetchstream):
	// requests past the site's capacity are refused with HTTP 429 plus a
	// Retry-After header instead of queueing without bound. The tenant
	// arrives in the X-Cohera-Tenant header; a slot is held for the
	// whole transfer, so a slow reader throttles the site rather than
	// inflating its buffers.
	// Like Token it must be set before serving; nil disables the gate.
	Admission *admission.Controller

	mu      sync.RWMutex
	sources map[string]wrapper.Source
	// tables keeps the raw stored tables published via PublishTable;
	// /digest and /debug/replication read content digests from them
	// (a generic wrapper.Source has no digestable row identity).
	tables map[string]*storage.Table
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		sources: make(map[string]wrapper.Source),
		tables:  make(map[string]*storage.Table),
	}
}

// Publish exposes a source under its schema name, instrumented so
// server-side fetches appear in the shared metrics and traces.
func (s *Server) Publish(src wrapper.Source) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sources[strings.ToLower(src.Schema().Name)] = wrapper.Instrument(src)
}

// PublishTable exposes a stored table directly, with equality pushdown on
// its indexed columns.
func (s *Server) PublishTable(t *storage.Table, pushdownEq ...string) {
	s.Publish(wrapper.NewERPSource(t.Def().Name, t, pushdownEq...))
	s.mu.Lock()
	s.tables[strings.ToLower(t.Def().Name)] = t
	s.mu.Unlock()
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	// Adopt the caller's trace (X-Cohera-Trace-Id / X-Cohera-Span-Id) so
	// spans recorded while serving join the federated query's tree.
	if sc, ok := obs.SpanContextFromHeaders(r.Header); ok {
		r = r.WithContext(obs.ContextWith(r.Context(), sc))
	}
	ctx, sp := obs.StartSpan(r.Context(), "remote.serve")
	sp.Set("path", r.URL.Path)
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	defer func() {
		metServerSeconds.Observe(time.Since(start))
		metServerReqs(r.URL.Path, statusClass(sw.status)).Inc()
		sp.Set("status", statusClass(sw.status))
		sp.End()
	}()

	if s.Token != "" {
		if r.Header.Get("Authorization") != "Bearer "+s.Token {
			http.Error(sw, `{"error":"unauthorized"}`, http.StatusUnauthorized)
			return
		}
	}
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		fmt.Fprintln(sw, "ok")
	case r.Method == http.MethodGet && r.URL.Path == "/tables":
		s.handleTables(sw)
	case r.Method == http.MethodPost && r.URL.Path == "/fetchstream":
		// The stream handler writes the entire transfer before
		// returning, so deferring the release holds the admission slot
		// for the stream's whole lifetime — backpressure from a slow
		// client reaches the gate, not the buffers.
		release, ok := s.admit(sw, r)
		if !ok {
			return
		}
		defer release()
		s.handleFetchStream(sw, r)
	case r.Method == http.MethodPost && r.URL.Path == "/digest":
		s.handleDigest(sw, r)
	case r.Method == http.MethodGet && r.URL.Path == "/debug/replication":
		s.handleReplication(sw)
	default:
		http.Error(sw, `{"error":"not found"}`, http.StatusNotFound)
	}
}

// admit charges the server's admission gate for one data-plane
// request, tagging it with the client-declared tenant. On a shed it
// writes the 429 refusal — Retry-After in whole seconds (ceiling, so a
// sub-second hint never rounds to "retry immediately"), the shed
// reason in ShedReasonHeader, and the typed detail in the JSON body —
// and reports ok=false. With no gate installed it is a no-op grant.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.Admission == nil {
		return func() {}, true
	}
	ctx := admission.WithTenant(r.Context(), r.Header.Get(TenantHeader))
	release, err := s.Admission.Admit(ctx)
	if err == nil {
		return release, true
	}
	oe, isShed := admission.AsOverload(err)
	if !isShed {
		// The client hung up while queued; it is not listening for a
		// status, but 429 is still the honest close-out.
		oe = &admission.OverloadError{Tenant: admission.TenantOf(ctx), Reason: "canceled", RetryAfter: time.Second}
	}
	secs := int(math.Ceil(oe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set(ShedReasonHeader, oe.Reason)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	//lint:ignore errdrop the refusal body is best-effort; the status code already carries the decision
	_ = json.NewEncoder(w).Encode(errorResponse{Error: oe.Error()})
	return nil, false
}

// statusWriter remembers the status code for metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) handleTables(w http.ResponseWriter) {
	s.mu.RLock()
	names := make([]string, 0, len(s.sources))
	for n := range s.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []wireSchema
	for _, n := range names {
		src := s.sources[n]
		caps := src.Capabilities()
		out = append(out, encodeSchema(src.Schema(), caps.PushdownEq, caps.Volatile))
	}
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	if err := writeJSON(w, out); err != nil {
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
	}
}

// handleDigest serves POST /digest: the order-independent content
// digest of one published stored table, so a remote reconciler can
// compare replicas without shipping rows.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<16))
	if err != nil {
		http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
		return
	}
	var req digestRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, `{"error":"bad json"}`, http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	t, ok := s.tables[strings.ToLower(req.Table)]
	s.mu.RUnlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("no stored table %q", req.Table)})
		return
	}
	d := t.Digest()
	w.Header().Set("Content-Type", "application/json")
	if err := writeJSON(w, digestResponse{Hash: fmt.Sprintf("%016x", d.Hash), Rows: d.Rows}); err != nil {
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
	}
}

// handleReplication serves GET /debug/replication: every published
// stored table's digest in one page, the operator view for eyeballing
// whether two sites agree (compare hashes across daemons).
func (s *Server) handleReplication(w http.ResponseWriter) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	st := replicationStatus{Tables: make([]tableReplication, 0, len(names))}
	for _, n := range names {
		d := s.tables[n].Digest()
		st.Tables = append(st.Tables, tableReplication{
			Name: n, Digest: fmt.Sprintf("%016x", d.Hash), Rows: d.Rows,
		})
	}
	s.mu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	if err := writeJSON(w, st); err != nil {
		http.Error(w, `{"error":"encode failure"}`, http.StatusInternalServerError)
	}
}
