package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// TestUnboundReferenceFailsWithoutRows: a reference that names no
// column fails the query whether or not a row would ever reach it — on
// an empty table and on a fully pruned fragment set, on both executors.
// The stream opens and reports the failure from its first Next.
func TestUnboundReferenceFailsWithoutRows(t *testing.T) {
	empty := New(NewAgoric())
	site := NewSite("empty")
	if err := empty.AddSite(site); err != nil {
		t.Fatal(err)
	}
	frag := NewFragment("all", nil, site)
	if _, err := empty.DefineTable(partsDef(), frag); err != nil {
		t.Fatal(err)
	}
	if err := empty.LoadFragment("parts", frag, nil); err != nil {
		t.Fatal(err)
	}
	pruned, _, _ := twoFragFed(t)
	ctx := context.Background()
	if _, trace, err := pruned.QueryTraced(ctx, "SELECT sku FROM parts WHERE region = 'nowhere'"); err != nil || trace.PrunedFragments != 2 {
		t.Fatalf("control query: %v, pruned %+v", err, trace)
	}
	for _, tc := range []struct {
		fed *Federation
		sql string
	}{
		{empty, "SELECT * FROM parts p WHERE x.price < 5"},
		{empty, "SELECT sku, nosuch FROM parts"},
		{pruned, "SELECT * FROM parts p WHERE x.price < 5 AND region = 'nowhere'"},
		{pruned, "SELECT nosuch FROM parts WHERE region = 'nowhere'"},
	} {
		st, _, err := tc.fed.QueryStream(ctx, tc.sql)
		if err != nil {
			t.Fatalf("%s: open: %v", tc.sql, err)
		}
		if _, err := storage.CollectRows(st); !errors.Is(err, plan.ErrUnknownColumn) {
			t.Errorf("%s: stream = %v, want ErrUnknownColumn", tc.sql, err)
		}
		if _, err := tc.fed.Query(ctx, tc.sql); !errors.Is(err, plan.ErrUnknownColumn) {
			t.Errorf("%s: materialized = %v, want ErrUnknownColumn", tc.sql, err)
		}
	}
}

// replicaOrder ranks a fragment's replicas in the order the fragment
// lists them, so a test decides which replica serves first.
type replicaOrder struct{}

func (replicaOrder) Name() string { return "replica-order" }

func (replicaOrder) Rank(_ context.Context, frag *Fragment, _ int) []*Site { return frag.Replicas() }

// fragLayout describes one parts fragment of a dedupe test: its
// predicate ("" for none), the keys it holds, and, per flaky replica
// ranked ahead of its stored one, how many rows that replica ships
// before it dies.
type fragLayout struct {
	pred  string
	keys  []int
	flaky []int
}

// keyedRow is a parts row whose every cell follows from its key, so the
// copies of a key that different fragments ship are the same row.
func keyedRow(k int) storage.Row {
	return row(fmt.Sprintf("K%03d", k), "item", float64(k), "any")
}

// dedupeFed builds a parts federation from fragment layouts, ranking
// replicas in the order listed. Each flaky replica ships its prefix in
// an order of its own, so a replay does not simply repeat the first
// rows. With hub set, one site is every fragment's stored replica, and
// its subqueries ship all fragments' rows.
func dedupeFed(tb testing.TB, layouts []fragLayout, hub bool) *Federation {
	tb.Helper()
	fed := New(replicaOrder{})
	newSite := func(name string) *Site {
		s := NewSite(name)
		if err := fed.AddSite(s); err != nil {
			tb.Fatal(err)
		}
		return s
	}
	var shared *Site
	if hub {
		shared = newSite("hub")
	}
	frags := make([]*Fragment, len(layouts))
	loads := make([][]storage.Row, len(layouts))
	for i, l := range layouts {
		for _, k := range l.keys {
			loads[i] = append(loads[i], keyedRow(k))
		}
		var reps []*Site
		for j, n := range l.flaky {
			var prefix []storage.Row
			for x := range loads[i] {
				prefix = append(prefix, loads[i][(x+j+1)%len(loads[i])])
			}
			s := newSite(fmt.Sprintf("f%d-flaky%d", i, j))
			s.AddSource(&flakySource{
				def:  partsDef(),
				rows: prefix[:min(n, len(prefix))],
				onEnd: func(context.Context) error {
					return errors.New("replica died mid-transfer")
				},
			})
			reps = append(reps, s)
		}
		stored := shared
		if stored == nil {
			stored = newSite(fmt.Sprintf("f%d", i))
		}
		var pred sqlparse.Expr
		if l.pred != "" {
			var err error
			if pred, err = sqlparse.ParseExpr(l.pred); err != nil {
				tb.Fatal(err)
			}
		}
		frags[i] = NewFragment(fmt.Sprintf("f%d", i), pred, append(reps, stored)...)
	}
	if _, err := fed.DefineTable(partsDef(), frags...); err != nil {
		tb.Fatal(err)
	}
	for i, frag := range frags {
		if err := fed.LoadFragment("parts", frag, loads[i]); err != nil {
			tb.Fatal(err)
		}
	}
	return fed
}

// expectEachKeyOnce streams SELECT * over a dedupeFed and checks the
// result against the map[string] reference model of the layouts: every
// key exactly once, as its keyed row, and nothing else.
func expectEachKeyOnce(tb testing.TB, fed *Federation, layouts []fragLayout) *QueryTrace {
	tb.Helper()
	want := map[string]bool{}
	for _, l := range layouts {
		for _, k := range l.keys {
			want[keyedRow(k)[0].Str()] = true
		}
	}
	st, trace, err := fed.QueryStream(context.Background(), "SELECT * FROM parts")
	if err != nil {
		tb.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		tb.Fatal(err)
	}
	got := map[string]int{}
	for _, r := range rows {
		sku := r[0].Str()
		got[sku]++
		if got[sku] > 1 {
			tb.Fatalf("key %s emitted twice", sku)
		}
		var k int
		if _, err := fmt.Sscanf(sku, "K%d", &k); err != nil || !want[sku] ||
			!sameMultiset(multiset([]storage.Row{r}), multiset([]storage.Row{keyedRow(k)})) {
			tb.Fatalf("row %v is not in the reference model", r)
		}
	}
	if len(got) != len(want) {
		tb.Fatalf("%d distinct keys, want %d", len(got), len(want))
	}
	return trace
}

// TestFailoverReplayOnDisjointFragments truncates the preferred
// replicas of a disjoint fragment set after a prefix: the next replica
// replays the fragment, the merge drops what was already shipped, and
// the result is the oracle's, with no key twice.
func TestFailoverReplayOnDisjointFragments(t *testing.T) {
	seq := func(from, n int) []int {
		var out []int
		for k := from; k < from+n; k++ {
			out = append(out, k)
		}
		return out
	}
	layouts := []fragLayout{
		{pred: "sku BETWEEN 'K000' AND 'K099'", keys: seq(0, 10), flaky: []int{4}},
		{pred: "sku BETWEEN 'K100' AND 'K199'", keys: seq(100, 10), flaky: []int{7, 3}},
		{pred: "sku BETWEEN 'K200' AND 'K299'", keys: seq(200, 10)},
	}
	for _, batch := range []int{1, 3} {
		fed := dedupeFed(t, layouts, false)
		fed.StreamBatchRows = batch
		if trace := expectEachKeyOnce(t, fed, layouts); trace.Failovers != 3 {
			t.Fatalf("batch %d: failovers = %d, want 3", batch, trace.Failovers)
		}
	}
}

// TestSharedKeysStillDeduped: where two fragments can ship the same key
// — nil predicates, overlapping ranges, or disjoint ranges hosted on
// one site, whose subqueries ship every fragment it holds — the merge
// still emits each key once, replays included.
func TestSharedKeysStillDeduped(t *testing.T) {
	for _, tc := range []struct {
		name    string
		hub     bool
		layouts []fragLayout
	}{
		{"nil predicates", false, []fragLayout{
			{keys: []int{0, 1, 2, 3, 4, 5}},
			{keys: []int{3, 4, 5, 6, 7, 8}, flaky: []int{4}},
		}},
		{"overlapping ranges", false, []fragLayout{
			{pred: "sku BETWEEN 'K000' AND 'K005'", keys: []int{0, 1, 2, 3, 4, 5}, flaky: []int{2}},
			{pred: "sku BETWEEN 'K003' AND 'K008'", keys: []int{3, 4, 5, 6, 7, 8}},
		}},
		{"disjoint ranges on one site", true, []fragLayout{
			{pred: "sku BETWEEN 'K000' AND 'K004'", keys: []int{0, 1, 2, 3, 4}},
			{pred: "sku BETWEEN 'K005' AND 'K009'", keys: []int{5, 6, 7, 8, 9}, flaky: []int{3}},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed := dedupeFed(t, tc.layouts, tc.hub)
			fed.StreamBatchRows = 2
			expectEachKeyOnce(t, fed, tc.layouts)
		})
	}
}

// TestMovedKeyReinsertedOnce: an UPDATE of a routing column would
// rewrite the row in place at its old fragment, where its predicate no
// longer holds it; the federation refuses it with the typed
// ErrRoutingColumnUpdate and changes nothing. The key stays reachable
// by point, range and DELETE, and a later INSERT of the would-be new
// key lands exactly once.
func TestMovedKeyReinsertedOnce(t *testing.T) {
	layouts := []fragLayout{
		{pred: "sku BETWEEN 'K000' AND 'K099'", keys: []int{1, 2, 3}},
		{pred: "sku BETWEEN 'K100' AND 'K199'", keys: []int{101, 102}},
	}
	fed := dedupeFed(t, layouts, false)
	ctx := context.Background()
	if _, _, err := fed.Exec(ctx, "UPDATE parts SET sku = 'K150' WHERE sku = 'K003'"); !errors.Is(err, ErrRoutingColumnUpdate) {
		t.Fatalf("routing UPDATE: err = %v, want ErrRoutingColumnUpdate", err)
	}
	if _, _, err := fed.Exec(ctx, "INSERT INTO parts (sku, name, price, region) VALUES ('K150', 'item', 150, 'any')"); err != nil {
		t.Fatal(err)
	}
	both := func(sql string) map[string][]storage.Row {
		t.Helper()
		res, err := fed.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		st, _, err := fed.QueryStream(ctx, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		streamed, err := storage.CollectRows(st)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return map[string][]storage.Row{"materialized": res.Rows, "stream": streamed}
	}
	keys := func(ks ...string) map[string]int {
		var rows []storage.Row
		for _, k := range ks {
			rows = append(rows, storage.Row{value.NewString(k)})
		}
		return multiset(rows)
	}
	for sql, want := range map[string]map[string]int{
		"SELECT sku FROM parts":                                     keys("K001", "K002", "K003", "K101", "K102", "K150"),
		"SELECT sku FROM parts WHERE sku = 'K003'":                  keys("K003"),
		"SELECT sku FROM parts WHERE sku BETWEEN 'K002' AND 'K004'": keys("K002", "K003"),
		"SELECT sku FROM parts WHERE sku = 'K150'":                  keys("K150"),
		"SELECT sku FROM parts WHERE sku BETWEEN 'K140' AND 'K160'": keys("K150"),
	} {
		for name, rows := range both(sql) {
			if got := multiset(rows); !sameMultiset(got, want) {
				t.Errorf("%s (%s): %v, want %v", sql, name, rows, want)
			}
		}
	}
	_, dr, err := fed.Exec(ctx, "DELETE FROM parts WHERE sku = 'K003'")
	if err != nil || dr.Rows != 1 {
		t.Fatalf("DELETE K003: %+v, %v; want one row", dr, err)
	}
	for name, rows := range both("SELECT sku FROM parts WHERE sku = 'K003'") {
		if len(rows) != 0 {
			t.Errorf("%s: K003 survived its DELETE: %v", name, rows)
		}
	}
}

// TestKeySetExactCompareOnCollision forces every key onto one hash, so
// membership rests on the byte compare alone.
func TestKeySetExactCompareOnCollision(t *testing.T) {
	var keys [][]byte
	for _, s := range []string{"a", "ab", "abc", "b", "ba", "K001\x00", "K001\x00K002\x00"} {
		keys = append(keys, []byte(s))
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, appendKey(nil, storage.Row{value.NewInt(int64(i))}, []int{0}))
	}
	s := &keySet{hash: func([]byte) uint64 { return 7 }}
	for _, k := range keys {
		if !s.insert(k) {
			t.Fatalf("insert %q into a set without it reported a duplicate", k)
		}
	}
	for _, k := range keys {
		if s.insert(k) {
			t.Fatalf("%q lost behind a colliding hash", k)
		}
	}
	for _, k := range []string{"", "abcd", "K001", "c"} {
		if !s.insert([]byte(k)) {
			t.Fatalf("absent %q found", k)
		}
	}
}

// TestMergedRowsDoNotAlias: a row the merge emits is the caller's —
// appending to it never changes its neighbour — on every projection
// shape: the shipped row passed through, a permutation cut from a
// per-batch backing array, and a bound expression.
func TestMergedRowsDoNotAlias(t *testing.T) {
	fed, _, _ := twoFragFed(t)
	for _, sql := range []string{
		"SELECT * FROM parts",
		"SELECT price, sku FROM parts",
		"SELECT sku, price * 2 AS p2 FROM parts",
	} {
		st, _, err := fed.QueryStream(context.Background(), sql)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := storage.CollectRows(st)
		if err != nil || len(rows) != 4 {
			t.Fatalf("%s: %d rows, %v", sql, len(rows), err)
		}
		for i := 0; i+1 < len(rows); i++ {
			if cap(rows[i]) != len(rows[i]) {
				t.Fatalf("%s: row %d has cap %d > width %d", sql, i, cap(rows[i]), len(rows[i]))
			}
			next := append(storage.Row(nil), rows[i+1]...)
			_ = append(rows[i], value.NewString("spill"))
			if !sameMultiset(multiset([]storage.Row{rows[i+1]}), multiset([]storage.Row{next})) {
				t.Fatalf("%s: append to row %d changed row %d: %v", sql, i, i+1, rows[i+1])
			}
		}
	}
}

// Regression tests for the streaming scatter-gather failure semantics:
// a cancelled caller context must never surface as a clean (silently
// short) result, a degraded materialized result must never contain a
// failed fragment's partial prefix, and a site that dies mid-transfer
// must trip its circuit breaker like one that fails at open.

// flakyStream yields a fixed prefix of rows, then hands control to
// onEnd — which may return an error (a source dying mid-transfer) or
// cancel the caller and report the cancellation.
type flakyStream struct {
	cols  []string
	rows  []storage.Row
	pos   int
	onEnd func() error
}

func (s *flakyStream) Columns() []string { return s.cols }

func (s *flakyStream) Next() (storage.Row, error) {
	if s.pos < len(s.rows) {
		r := s.rows[s.pos]
		s.pos++
		return r, nil
	}
	return nil, s.onEnd()
}

func (s *flakyStream) Close() error { return nil }

// flakySource is a stream-only wrapper source backing the flaky
// streams above.
type flakySource struct {
	def   *schema.Table
	rows  []storage.Row
	onEnd func(ctx context.Context) error
}

func (s *flakySource) Name() string                       { return "flaky-" + s.def.Name }
func (s *flakySource) Schema() *schema.Table              { return s.def }
func (s *flakySource) Capabilities() wrapper.Capabilities { return wrapper.Capabilities{} }

func (s *flakySource) Fetch(ctx context.Context, _ []wrapper.Filter) ([]storage.Row, error) {
	return nil, errors.New("flaky source is stream-only")
}

func (s *flakySource) FetchPushStream(ctx context.Context, _ []wrapper.Filter, _ wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	return &flakyStream{
		cols:  s.def.ColumnNames(),
		rows:  s.rows,
		onEnd: func() error { return s.onEnd(ctx) },
	}, wrapper.Applied{}, nil
}

// flakyFed builds a federation whose single "parts" fragment is served
// by one site fronting a flakySource, with batch size 1 so every row
// the source yields is shipped before the failure lands.
func flakyFed(t *testing.T, src *flakySource) (*Federation, *Site) {
	t.Helper()
	fed := New(NewAgoric())
	site := NewSite("flaky")
	if err := fed.AddSite(site); err != nil {
		t.Fatal(err)
	}
	site.AddSource(src)
	if _, err := fed.DefineTable(partsDef(), NewFragment("all", nil, site)); err != nil {
		t.Fatal(err)
	}
	fed.StreamBatchRows = 1
	return fed, site
}

// TestSelectStreamParentCancelNotSilentEOF asserts that when the
// caller's context dies mid-stream, Next surfaces the cancellation
// rather than a clean io.EOF over a prefix of the rows.
func TestSelectStreamParentCancelNotSilentEOF(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east"), row("F2", "widget", 2, "east")},
		onEnd: func(sctx context.Context) error {
			cancel() // caller times out mid-transfer
			<-sctx.Done()
			return sctx.Err()
		},
	}
	fed, _ := flakyFed(t, src)
	st, _, err := fed.QueryStream(ctx, "SELECT sku FROM parts")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rows, err := storage.CollectRows(st)
	if err == nil || err == io.EOF {
		t.Fatalf("cancelled stream drained clean with %d rows — silent truncation", len(rows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation surfaced as %v, want context.Canceled in the chain", err)
	}
}

// TestGatherParentCancelNotPartialSuccess is the materialized twin:
// a SELECT whose context dies mid-gather must fail, not return the
// shipped prefix as a complete result.
func TestGatherParentCancelNotPartialSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east"), row("F2", "widget", 2, "east")},
		onEnd: func(sctx context.Context) error {
			cancel()
			<-sctx.Done()
			return sctx.Err()
		},
	}
	fed, _ := flakyFed(t, src)
	res, err := fed.Query(ctx, "SELECT sku FROM parts")
	if err == nil {
		t.Fatalf("cancelled gather returned success with %d rows — silent truncation", len(res.Rows))
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation surfaced as %v, want context.Canceled in the chain", err)
	}
}

// TestPartialResultsExcludesMidStreamFailedFragment asserts a degraded
// materialized result contains only whole surviving fragments: a
// fragment that ships a prefix and then loses its only replica must
// contribute no rows, while its typed error lands on the trace.
func TestPartialResultsExcludesMidStreamFailedFragment(t *testing.T) {
	fed := New(NewAgoric())
	east := NewSite("east-ok")
	west := NewSite("west-flaky")
	for _, s := range []*Site{east, west} {
		if err := fed.AddSite(s); err != nil {
			t.Fatal(err)
		}
	}
	west.AddSource(&flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("W1", "drill", 99, "west"), row("W2", "forklift", 12000, "west")},
		onEnd: func(context.Context) error {
			return errors.New("replica died mid-transfer")
		},
	})
	fragEast := NewFragment("east", nil, east)
	fragWest := NewFragment("west", nil, west)
	if _, err := fed.DefineTable(partsDef(), fragEast, fragWest); err != nil {
		t.Fatal(err)
	}
	if err := fed.LoadFragment("parts", fragEast, []storage.Row{
		row("E1", "ink", 3.5, "east"),
		row("E2", "pen", 1.2, "east"),
	}); err != nil {
		t.Fatal(err)
	}
	fed.StreamBatchRows = 1 // ship the west prefix row by row before the failure
	fed.PartialResults = true

	res, trace, err := fed.QueryTraced(context.Background(), "SELECT sku FROM parts")
	if err != nil {
		t.Fatalf("degraded select: %v", err)
	}
	got := sortedFirstCol(res.Rows)
	if len(got) != 2 || got[0] != "E1" || got[1] != "E2" {
		t.Fatalf("degraded rows = %v, want exactly [E1 E2] (no partial west prefix)", got)
	}
	if !trace.Degraded {
		t.Fatal("trace must be marked degraded")
	}
	if fe := trace.FragmentErrors["parts/west"]; fe == nil || !errors.Is(fe, ErrNoReplica) {
		t.Fatalf("fragment error = %v, want ErrNoReplica", fe)
	}
}

// TestBreakerRecordsMidStreamFailure asserts the streaming subquery
// path charges mid-transfer deaths to the site's circuit breaker: a
// site whose streams open fine but keep dying must trip open, exactly
// like one whose materialized subqueries fail.
func TestBreakerRecordsMidStreamFailure(t *testing.T) {
	src := &flakySource{
		def:  partsDef(),
		rows: []storage.Row{row("F1", "widget", 1, "east")},
		onEnd: func(context.Context) error {
			return errors.New("wire cut")
		},
	}
	_, site := flakyFed(t, src)
	site.Breaker().FailureThreshold = 2

	for i := 0; i < 2; i++ {
		st, err := site.SubQueryStream(context.Background(), "parts", nil, nil, -1)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		for {
			if _, err := st.Next(); err != nil {
				if !errors.Is(err, ErrSiteFailure) {
					t.Fatalf("mid-stream death surfaced as %v, want ErrSiteFailure", err)
				}
				break
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
	if got := site.Breaker().State(); got != resilience.Open {
		t.Fatalf("breaker state after repeated mid-stream deaths = %v, want Open", got)
	}
}
