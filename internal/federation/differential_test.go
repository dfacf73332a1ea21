package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/fault"
	"cohera/internal/remote"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/workload"
)

// The differential harness: Query and QueryStream are two entry points
// to the federated executor, and one exec.Database holding every loaded
// row is an executor that shares nothing with them but the SQL engine.
// On every query both entry points must agree with that reference on
// the result columns and row multiset. We drive them with a seeded
// corpus of generated SELECTs over the hotels vignette, including the
// degraded (PartialResults) regime, whose reference leaves out the lost
// fragment's rows, and assert a fault-injected mid-stream truncation
// surfaces as a typed error, never a silently short result.

// hotelsFed builds a federation of the hotels table fragmented by
// chain across four fragments; fragments 1 and 3 are replicated.
func hotelsFed(t *testing.T) (*Federation, []*Fragment) {
	t.Helper()
	fed := New(NewAgoric())
	chains := workload.Hotels(8, 10, 4242)
	var frags []*Fragment
	for f := 0; f < 4; f++ {
		var sites []*Site
		for r := 0; r <= f%2; r++ {
			s := NewSite(fmt.Sprintf("h%d-%d", f, r))
			if err := fed.AddSite(s); err != nil {
				t.Fatal(err)
			}
			sites = append(sites, s)
		}
		pred, err := sqlparse.ParseExpr(fmt.Sprintf(
			"chain IN ('chain-%02d', 'chain-%02d')", 2*f, 2*f+1))
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, NewFragment(fmt.Sprintf("f%d", f), pred, sites...))
	}
	if _, err := fed.DefineTable(workload.HotelsDef(), frags...); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		var rows []storage.Row
		for _, h := range chains[2*f] {
			rows = append(rows, workload.HotelRow(h))
		}
		for _, h := range chains[2*f+1] {
			rows = append(rows, workload.HotelRow(h))
		}
		if err := fed.LoadFragment("hotels", frags[f], rows); err != nil {
			t.Fatal(err)
		}
	}
	return fed, frags
}

// multiset keys each row by its rendered cells.
func multiset(rows []storage.Row) map[string]int {
	m := make(map[string]int, len(rows))
	for _, r := range rows {
		var b strings.Builder
		for _, v := range r {
			b.WriteString(v.String())
			b.WriteByte('\x1f')
		}
		m[b.String()]++
	}
	return m
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// hotelsReference is one engine holding the rows hotelsFed loads,
// minus those of the fragments listed in lost.
func hotelsReference(t *testing.T, lost ...int) *exec.Database {
	t.Helper()
	chains := workload.Hotels(8, 10, 4242)
	var rows []storage.Row
	for f := 0; f < 4; f++ {
		if slices.Contains(lost, f) {
			continue
		}
		for _, h := range append(chains[2*f], chains[2*f+1]...) {
			rows = append(rows, workload.HotelRow(h))
		}
	}
	db := exec.NewDatabase()
	if err := db.LoadRows(workload.HotelsDef(), rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// checkDifferential runs one generated query through both entry points
// and the reference, and fails the test on any disagreement. A LIMIT
// without a total order may legally pick any satisfying subset, so
// those queries compare by count plus sub-multiset of the reference's
// unlimited superset (the metamorphic relation), not exact equality.
func checkDifferential(t *testing.T, fed *Federation, ref *exec.Database, q workload.GenQuery) {
	t.Helper()
	ctx := context.Background()
	want, err := ref.Exec(q.SQL)
	if err != nil {
		t.Fatalf("%s: reference: %v", q.SQL, err)
	}
	var super map[string]int
	if q.Unordered {
		all, err := ref.Exec(q.Base)
		if err != nil {
			t.Fatalf("%s: reference superset: %v", q.Base, err)
		}
		super = multiset(all.Rows)
	}
	res, err := fed.Query(ctx, q.SQL)
	if err != nil {
		t.Fatalf("%s: Query: %v", q.SQL, err)
	}
	matchReference(t, q.SQL, "Query", res.Columns, res.Rows, want, super)
	st, _, err := fed.QueryStream(ctx, q.SQL)
	if err != nil {
		t.Fatalf("%s: QueryStream open: %v", q.SQL, err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatalf("%s: QueryStream drain: %v", q.SQL, err)
	}
	matchReference(t, q.SQL, "QueryStream", st.Columns(), rows, want, super)
}

// matchReference compares one entry point's answer with the
// reference's: the same columns, the same row count, and the same row
// multiset — or, with super set, rows drawn from it.
func matchReference(t *testing.T, sql, path string, cols []string, rows []storage.Row, want *exec.Result, super map[string]int) {
	t.Helper()
	if !slices.Equal(cols, want.Columns) {
		t.Fatalf("%s: %s columns %v, reference %v", sql, path, cols, want.Columns)
	}
	if len(rows) != len(want.Rows) {
		t.Fatalf("%s: %s returned %d rows, reference %d", sql, path, len(rows), len(want.Rows))
	}
	if super != nil {
		for k, n := range multiset(rows) {
			if super[k] < n {
				t.Fatalf("%s: %s row %q not in the reference's unlimited superset", sql, path, k)
			}
		}
		return
	}
	if got := multiset(rows); !sameMultiset(got, multiset(want.Rows)) {
		t.Fatalf("%s: %s multiset differs from the reference\ngot:       %v\nreference: %v",
			sql, path, got, multiset(want.Rows))
	}
}

// TestDifferentialStreamVsMaterialized runs the seeded 500-query corpus
// through both entry points on a healthy federation.
func TestDifferentialStreamVsMaterialized(t *testing.T) {
	fed, _ := hotelsFed(t)
	ref := hotelsReference(t)
	for _, q := range workload.HotelSelects(500, 1337) {
		checkDifferential(t, fed, ref, q)
	}
}

// TestDifferentialUnderDegradation re-runs a corpus slice with a whole
// fragment down and PartialResults on: both entry points must answer
// what the reference without that fragment answers, and mark the trace
// identically. Without PartialResults both must fail typed rather than
// answer short.
func TestDifferentialUnderDegradation(t *testing.T) {
	fed, frags := hotelsFed(t)
	for _, s := range frags[1].Replicas() {
		s.SetDown(true)
	}

	// Both paths refuse to degrade silently.
	if _, err := fed.Query(context.Background(), "SELECT hotel FROM hotels"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("materialized with lost fragment: %v, want ErrNoReplica", err)
	}
	st, _, err := fed.QueryStream(context.Background(), "SELECT hotel FROM hotels")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CollectRows(st); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("stream with lost fragment drained as %v, want ErrNoReplica", err)
	}

	fed.PartialResults = true
	ref := hotelsReference(t, 1)
	for _, q := range workload.HotelSelects(150, 99) {
		checkDifferential(t, fed, ref, q)
	}

	// Both traces carry the same degradation record.
	_, mt, err := fed.QueryTraced(context.Background(), "SELECT hotel FROM hotels")
	if err != nil {
		t.Fatal(err)
	}
	st, strace, err := fed.QueryStream(context.Background(), "SELECT hotel FROM hotels")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storage.CollectRows(st); err != nil {
		t.Fatal(err)
	}
	if !mt.Degraded || !strace.Degraded {
		t.Fatalf("degraded flags: materialized=%v stream=%v", mt.Degraded, strace.Degraded)
	}
	if !errors.Is(strace.FragmentErrors["hotels/f1"], ErrNoReplica) {
		t.Fatalf("stream fragment error = %v", strace.FragmentErrors["hotels/f1"])
	}
}

// TestDifferentialTruncationIsTyped injects a mid-transfer truncation
// into the frame wire under a remote-backed single-replica fragment:
// the stream must end in a typed error carrying remote.ErrTruncated,
// never a silent short result.
func TestDifferentialTruncationIsTyped(t *testing.T) {
	def := workload.HotelsDef()
	tbl := storage.NewTable(def.Clone("hotels"))
	for _, h := range workload.Hotels(1, 40, 7)[0] {
		if _, err := tbl.Insert(workload.HotelRow(h)); err != nil {
			t.Fatal(err)
		}
	}
	srv := remote.NewServer()
	srv.StreamBatchRows = 4 // many chunks, so the cut lands mid-stream
	srv.PublishTable(tbl, "hotel")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	inj := fault.New("trunc", fault.Config{TruncateRate: 1, Seed: 1})
	inj.SetEnabled(false) // let the attach handshake through
	client := remote.Dial(ts.URL, "",
		remote.WithTransport(&fault.RoundTripper{Injector: inj}))
	sources, err := client.Tables(context.Background())
	if err != nil || len(sources) != 1 {
		t.Fatalf("tables: %v (%d sources)", err, len(sources))
	}

	fed := New(NewAgoric())
	site := NewSite("remote-hotels")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	site.AddSource(sources[0])
	frag := NewFragment("all", nil, site)
	if _, err := fed.DefineTable(def, frag); err != nil {
		t.Fatal(err)
	}

	inj.SetEnabled(true)
	st, _, err := fed.QueryStream(context.Background(), "SELECT hotel FROM hotels")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err == nil || err == io.EOF {
		t.Fatalf("truncated stream drained clean with %d rows — silent short result", len(rows))
	}
	if !errors.Is(err, remote.ErrTruncated) {
		t.Fatalf("truncation surfaced as %v, want remote.ErrTruncated in the chain", err)
	}
	if len(rows) >= tbl.Len() {
		t.Fatalf("drained %d rows of %d despite truncation", len(rows), tbl.Len())
	}
}
