// Command coherasmoke is the CI smoke probe for the observability
// endpoints: it assembles the same handler stack coherad serves —
// obs.Handler in front of a remote.Server publishing one table — runs a
// fetch through it to move the metrics, then asserts that the retired
// POST /fetch answers 404, that a raw POST /fetchstream answers frames
// ending in the eof terminator, that /healthz answers 200, that /metrics
// emits non-empty, well-formed Prometheus text counting the fetch on
// /fetchstream, and that the query-observability surface works end to
// end: an EXPLAIN ANALYZE whose per-fragment row counts sum to the
// result cardinality, an open stream visible in /debug/queries, and an
// operator cancel that kills it with the typed cause. Last, a GROUP BY
// over two peers must fold at the peers — one partial row per group
// and peer — and answer what the same query answers on one engine
// holding both peers' rows. Exit status 0
// means the daemon surface is healthy; any defect prints a diagnostic
// and exits 1. scripts/check.sh runs it as a gate.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"

	"cohera/internal/exec"
	"cohera/internal/federation"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/remote"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "coherasmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("coherasmoke: /fetchstream frames ok, /healthz ok, /metrics well-formed, explain+queries+cancel ok, group pushdown ok")
}

func run() error {
	srv := remote.NewServer()
	tbl, err := demoTable()
	if err != nil {
		return err
	}
	srv.PublishTable(tbl, "sku")
	h := obs.NewHandler(srv)
	h.Slow = obs.NewSlowLog(0)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Exercise the content path first so the registry has real series.
	ctx := context.Background()
	cl := remote.Dial(ts.URL, "")
	sources, err := cl.Tables(ctx)
	if err != nil {
		return fmt.Errorf("/tables: %w", err)
	}
	if len(sources) != 1 {
		return fmt.Errorf("/tables: want 1 source, got %d", len(sources))
	}
	rows, err := sources[0].Fetch(ctx, nil)
	if err != nil {
		return fmt.Errorf("fetch: %w", err)
	}
	if len(rows) == 0 {
		return fmt.Errorf("fetch: no rows")
	}
	if err := checkFetchRetired(ts.URL); err != nil {
		return err
	}
	if err := checkRawStream(ts.URL); err != nil {
		return err
	}

	if err := checkHealth(ts.URL); err != nil {
		return err
	}
	if err := checkMetrics(ts.URL); err != nil {
		return err
	}
	if err := checkQueryObservability(ts.URL); err != nil {
		return err
	}
	return checkGroupPushdown(ctx)
}

// groupPeers starts two peers serving disjoint halves of a keyed
// "orders" table through the handler stack coherad serves, and returns
// a federation over them and one engine holding both halves.
func groupPeers(ctx context.Context) (*federation.Federation, []*remote.Source, *exec.Database, func(), error) {
	def, err := schema.NewTable("orders", []schema.Column{
		{Name: "id", Kind: value.KindString, NotNull: true},
		{Name: "region", Kind: value.KindString},
		{Name: "amount", Kind: value.KindFloat},
	}, "id")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fed := federation.New(federation.NewAgoric())
	var servers []*httptest.Server
	stop := func() {
		for _, ts := range servers {
			ts.Close()
		}
	}
	var sources []*remote.Source
	var all []storage.Row
	for p, prefix := range []string{"a", "b"} {
		tbl := storage.NewTable(def.Clone("orders"))
		for i := 0; i < 30; i++ {
			row := storage.Row{
				value.NewString(fmt.Sprintf("%s%02d", prefix, i)),
				value.NewString([]string{"east", "west", "north"}[i%3]),
				value.NewFloat(float64(i*7%23) + 0.25),
			}
			if _, err := tbl.Insert(row); err != nil {
				stop()
				return nil, nil, nil, nil, err
			}
			all = append(all, row)
		}
		srv := remote.NewServer()
		srv.PublishTable(tbl)
		ts := httptest.NewServer(obs.NewHandler(srv))
		servers = append(servers, ts)
		found, err := remote.Dial(ts.URL, "").Tables(ctx)
		if err != nil || len(found) != 1 {
			stop()
			return nil, nil, nil, nil, fmt.Errorf("peer %d /tables: %v (%d tables)", p, err, len(found))
		}
		src := found[0].(*remote.Source)
		sources = append(sources, src)
		site := federation.NewSite(fmt.Sprintf("peer-%s", prefix))
		site.AddSource(src)
		if err := fed.AddSite(site); err != nil {
			stop()
			return nil, nil, nil, nil, err
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf("id BETWEEN '%s' AND '%s~'", prefix, prefix))
		if err != nil {
			stop()
			return nil, nil, nil, nil, err
		}
		if p == 0 {
			_, err = fed.DefineTable(def, federation.NewFragment("f"+prefix, pred, site))
		} else {
			err = fed.AddFragment("orders", federation.NewFragment("f"+prefix, pred, site))
		}
		if err != nil {
			stop()
			return nil, nil, nil, nil, err
		}
	}
	ref := exec.NewDatabase()
	if err := ref.LoadRows(def, all); err != nil {
		stop()
		return nil, nil, nil, nil, err
	}
	return fed, sources, ref, stop, nil
}

// checkGroupPushdown asserts that a peer folds a pushed grouping, and
// that a federated GROUP BY over such peers answers what one engine
// holding every row answers, from one partial row per group and peer.
func checkGroupPushdown(ctx context.Context) error {
	fed, sources, ref, stop, err := groupPeers(ctx)
	if err != nil {
		return err
	}
	defer stop()

	g := &plan.Grouping{Keys: []string{"region"}, Aggs: []plan.AggCall{{Func: "COUNT"}, {Func: "AVG", Col: "amount"}}}
	st, applied, err := sources[0].FetchPushStream(ctx, nil, wrapper.Pushdown{Group: g})
	if err != nil {
		return fmt.Errorf("grouped fetch: %w", err)
	}
	partials, err := storage.CollectRows(st)
	if err != nil {
		return fmt.Errorf("grouped fetch: %w", err)
	}
	if !applied.Group || len(partials) != 3 || len(partials[0]) != 4 {
		return fmt.Errorf("grouped fetch: receipt group=%v, %d partial rows %v; want the group applied and 3 rows of 4 cells",
			applied.Group, len(partials), partials)
	}

	const sql = "SELECT region, COUNT(*), SUM(amount), AVG(amount), MAX(id) FROM orders GROUP BY region ORDER BY region"
	res, trace, err := fed.QueryTraced(ctx, sql)
	if err != nil {
		return fmt.Errorf("group pushdown: %w", err)
	}
	want, err := ref.Exec(sql)
	if err != nil {
		return fmt.Errorf("group pushdown (one engine): %w", err)
	}
	if fmt.Sprint(res.Columns, res.Rows) != fmt.Sprint(want.Columns, want.Rows) {
		return fmt.Errorf("group pushdown: %v %v, one engine answers %v %v", res.Columns, res.Rows, want.Columns, want.Rows)
	}
	for frag, n := range trace.PushedRows {
		if n != 3 {
			return fmt.Errorf("group pushdown: %s shipped %d rows, want 3 partials", frag, n)
		}
	}
	return nil
}

// checkQueryObservability drives a 3-site federation through the
// operator surface: EXPLAIN ANALYZE must account for every streamed
// row per fragment, the in-flight registry must list an open stream,
// and a cancel through the endpoint must terminate it with the typed
// cause.
func checkQueryObservability(base string) error {
	fed, err := smokeFederation()
	if err != nil {
		return err
	}
	ctx := context.Background()

	// EXPLAIN ANALYZE: the fragment stages' row counts must sum to the
	// result cardinality (disjoint fragments, no coordinator filter).
	stmt, err := sqlparse.Parse("EXPLAIN ANALYZE SELECT sku, price FROM parts")
	if err != nil {
		return err
	}
	rep, err := fed.Explain(ctx, stmt.(sqlparse.ExplainStmt))
	if err != nil {
		return fmt.Errorf("explain analyze: %w", err)
	}
	if rep.ResultRows != 15 {
		return fmt.Errorf("explain analyze: %d result rows, want 15", rep.ResultRows)
	}
	var sum int64
	frags := rep.FragmentRows()
	for _, n := range frags {
		sum += n
	}
	if int(sum) != rep.ResultRows || len(frags) != 3 {
		return fmt.Errorf("explain analyze: %d fragment stages summing %d rows, want 3 summing %d",
			len(frags), sum, rep.ResultRows)
	}
	if len(rep.Render().Rows) == 0 {
		return fmt.Errorf("explain analyze: empty rendering")
	}

	// Open a stream without draining it: it must appear in
	// /debug/queries (served off the same process-wide registry the
	// handler mounts).
	sel, err := sqlparse.Parse("SELECT sku, price FROM parts")
	if err != nil {
		return err
	}
	st, _, err := fed.SelectStream(ctx, sel.(sqlparse.SelectStmt))
	if err != nil {
		return fmt.Errorf("select stream: %w", err)
	}
	defer st.Close()
	resp, err := http.Get(base + "/debug/queries")
	if err != nil {
		return fmt.Errorf("/debug/queries: %w", err)
	}
	var snaps []obs.ActiveQuerySnapshot
	jerr := json.NewDecoder(resp.Body).Decode(&snaps)
	resp.Body.Close()
	if jerr != nil {
		return fmt.Errorf("/debug/queries: decoding: %w", jerr)
	}
	var open *obs.ActiveQuerySnapshot
	for i := range snaps {
		if strings.Contains(snaps[i].SQL, "FROM parts") {
			open = &snaps[i]
		}
	}
	if open == nil {
		return fmt.Errorf("/debug/queries: open stream not listed (%d entries)", len(snaps))
	}

	// Cancel it through the endpoint: the stream must die with the
	// typed operator-cancel cause, never a silent clean EOF.
	curl := fmt.Sprintf("%s/debug/queries/%d/cancel", base, open.ID)
	cresp, err := http.Post(curl, "application/json", nil)
	if err != nil {
		return fmt.Errorf("cancel: %w", err)
	}
	//lint:ignore errdrop status code is the assertion; the body is advisory
	io.Copy(io.Discard, cresp.Body)
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		return fmt.Errorf("cancel: status %d, want 200", cresp.StatusCode)
	}
	for {
		_, err := st.Next()
		if err == nil {
			continue // buffered rows may still surface; the error must follow
		}
		if err == io.EOF {
			return fmt.Errorf("cancelled stream ended with clean EOF, want typed error")
		}
		if !errors.Is(err, obs.ErrQueryCanceled) {
			return fmt.Errorf("cancelled stream error = %v, want obs.ErrQueryCanceled", err)
		}
		break
	}
	return nil
}

// smokeFederation assembles three dedicated sites, each hosting one
// disjoint keyed fragment of a "parts" table (4 + 5 + 6 rows).
func smokeFederation() (*federation.Federation, error) {
	fed := federation.New(federation.NewAgoric())
	def, err := schema.NewTable("parts", []schema.Column{
		{Name: "sku", Kind: value.KindString},
		{Name: "price", Kind: value.KindFloat},
	}, "sku")
	if err != nil {
		return nil, err
	}
	sizes := []int{4, 5, 6}
	var frags []*federation.Fragment
	for i := range sizes {
		site := federation.NewSite(fmt.Sprintf("smoke-%d", i))
		if err := fed.AddSite(site); err != nil {
			return nil, err
		}
		frags = append(frags, federation.NewFragment(fmt.Sprintf("f%d", i+1), nil, site))
	}
	if _, err := fed.DefineTable(def, frags...); err != nil {
		return nil, err
	}
	for i, n := range sizes {
		rows := make([]storage.Row, 0, n)
		for j := 0; j < n; j++ {
			rows = append(rows, storage.Row{
				value.NewString(fmt.Sprintf("sku-%d-%d", i, j)),
				value.NewFloat(float64(10*i + j)),
			})
		}
		if err := fed.LoadFragment("parts", frags[i], rows); err != nil {
			return nil, err
		}
	}
	return fed, nil
}

// checkFetchRetired asserts that the retired POST /fetch answers 404.
func checkFetchRetired(base string) error {
	resp, err := http.Post(base+"/fetch", "application/json", strings.NewReader(`{"table":"catalog"}`))
	if err != nil {
		return fmt.Errorf("POST /fetch: %w", err)
	}
	//lint:ignore errdrop status code is the assertion; the body is advisory
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("POST /fetch: status %d, want 404", resp.StatusCode)
	}
	return nil
}

// checkRawStream reads a raw POST /fetchstream as a peer of another
// build would: the body must be frames in their content type, each a
// kind byte, a uvarint length and the payload, the last an M frame
// holding {"eof":true}.
func checkRawStream(base string) error {
	resp, err := http.Post(base+"/fetchstream", "application/json", strings.NewReader(`{"table":"catalog"}`))
	if err != nil {
		return fmt.Errorf("POST /fetchstream: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST /fetchstream: reading body: %w", err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-cohera-frames" {
		return fmt.Errorf("POST /fetchstream: status %d, Content-Type %q; want 200 and application/x-cohera-frames", resp.StatusCode, ct)
	}
	var kind byte
	var payload []byte
	for len(body) > 0 {
		n, w := binary.Uvarint(body[1:])
		if w <= 0 || n > uint64(len(body)-1-w) {
			return fmt.Errorf("POST /fetchstream: malformed frame header % x", body[:min(len(body), 12)])
		}
		kind, payload, body = body[0], body[1+w:1+w+int(n)], body[1+w+int(n):]
	}
	if kind != 'M' || string(payload) != `{"eof":true}` {
		return fmt.Errorf("POST /fetchstream: last frame %q %q, want M {\"eof\":true}", kind, payload)
	}
	return nil
}

func checkHealth(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("/healthz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("/healthz: reading body: %w", err)
	}
	if strings.TrimSpace(string(body)) != "ok" {
		return fmt.Errorf("/healthz: body %q, want \"ok\"", body)
	}
	return nil
}

// checkMetrics asserts the exposition is non-empty and well-formed:
// every non-comment line is `name{labels} value` or `name value`, every
// series is preceded by # HELP and # TYPE for its family, and the
// series the smoke traffic must have produced are present.
func checkMetrics(base string) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("/metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("/metrics: reading body: %w", err)
	}
	text := string(body)
	if strings.TrimSpace(text) == "" {
		return fmt.Errorf("/metrics: empty exposition")
	}
	typed := map[string]bool{}
	series := 0
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) < 4 {
				return fmt.Errorf("/metrics line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = true
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("/metrics line %d: unknown comment %q", ln+1, line)
		}
		name := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			name = line[:i]
			if !strings.Contains(line, "} ") {
				return fmt.Errorf("/metrics line %d: unterminated labels %q", ln+1, line)
			}
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		} else {
			return fmt.Errorf("/metrics line %d: no value %q", ln+1, line)
		}
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[family] {
			return fmt.Errorf("/metrics line %d: series %q has no # TYPE", ln+1, name)
		}
		series++
	}
	if series == 0 {
		return fmt.Errorf("/metrics: no series emitted")
	}
	for _, want := range []string{
		// Fetch is the smoke's only remote read, so this series exists
		// only if it travelled the /fetchstream push stream.
		`cohera_remote_server_requests_total{class="2xx",path="/fetchstream"} `,
		"cohera_remote_client_requests_total",
		"cohera_wrapper_fetches_total",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("/metrics: missing expected series %s", want)
		}
	}
	return nil
}

func demoTable() (*storage.Table, error) {
	def, err := schema.NewTable("catalog", []schema.Column{
		{Name: "sku", Kind: value.KindString},
		{Name: "price", Kind: value.KindFloat},
	})
	if err != nil {
		return nil, err
	}
	tbl := storage.NewTable(def)
	for i, sku := range []string{"drill-01", "saw-02", "vise-03"} {
		if _, err := tbl.Insert(storage.Row{
			value.NewString(sku), value.NewFloat(float64(10 * (i + 1))),
		}); err != nil {
			return nil, err
		}
	}
	return tbl, nil
}
