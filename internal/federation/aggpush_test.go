package federation

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"cohera/internal/exec"
	"cohera/internal/plan"
	"cohera/internal/remote"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
	"cohera/internal/wrapper"
)

// The aggregate differential regime: pushing a decomposable GROUP BY to
// the sites is an optimization, so every aggregate query must answer
// what one engine holding every row answers, whether the sites fold
// (pushed), the sites fold rows their sources ship (withheld), some of
// each (mixed), the sources evaluate nothing (weak), over the wire to
// peers that group, or to peers whose sources the coordinator-side
// sites treat as unable to group, whose rows those sites fold. FLOAT
// cells compare within 1e-9 relative error: partial sums add in a
// different order than one scan does.

// aggHotelsDef is the hotels schema with city searchable, so the
// corpus's text-predicate shape runs.
func aggHotelsDef() *schema.Table {
	def := workload.HotelsDef()
	def.Columns[def.ColumnIndex("city")].FullText = true
	return def
}

// aggHotelPred is fragment f's predicate: the hotel-name range of
// chains 2f and 2f+1.
func aggHotelPred(t testing.TB, f int) sqlparse.Expr {
	t.Helper()
	pred, err := sqlparse.ParseExpr(fmt.Sprintf("hotel BETWEEN 'chain-%02d' AND 'chain-%02d-z'", 2*f, 2*f+1))
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

// aggHotelRows returns the four fragments' rows, with NULLs sprinkled
// over every nullable column the corpus aggregates and chain-07 holding
// no availability at all, so SUM over an all-NULL group is NULL.
func aggHotelRows() [][]storage.Row {
	chains := workload.Hotels(8, 10, 4242)
	out := make([][]storage.Row, 4)
	n := 0
	for c, hotels := range chains {
		for _, h := range hotels {
			r := workload.HotelRow(h)
			n++
			if n%5 == 0 || c == 7 {
				r[6] = value.Null
			}
			if n%7 == 0 {
				r[3] = value.Null
			}
			if n%9 == 0 {
				r[2] = value.Null
			}
			if n%11 == 0 {
				r[5] = value.Null
			}
			out[c/2] = append(out[c/2], r)
		}
	}
	return out
}

// aggOracle is one engine holding every row.
func aggOracle(t testing.TB) *exec.Database {
	t.Helper()
	db := exec.NewDatabase()
	var all []storage.Row
	for _, rows := range aggHotelRows() {
		all = append(all, rows...)
	}
	if err := db.LoadRows(aggHotelsDef(), all); err != nil {
		t.Fatal(err)
	}
	return db
}

// aggFed builds the in-process hotels federation fragmented by hotel
// ranges. Fragments 1 and 3 have two replicas. caps, when non-nil,
// picks by site name the capabilities of a source each site reads its
// stored table through; nil leaves the site a full engine.
func aggFed(t testing.TB, caps func(site string) *plan.PushCaps) *Federation {
	t.Helper()
	fed := New(NewAgoric())
	rows := aggHotelRows()
	var frags []*Fragment
	for f := 0; f < 4; f++ {
		var sites []*Site
		for r := 0; r <= f%2; r++ {
			s := NewSite(fmt.Sprintf("a%d-%d", f, r))
			if err := fed.AddSite(s); err != nil {
				t.Fatal(err)
			}
			sites = append(sites, s)
		}
		frags = append(frags, NewFragment(fmt.Sprintf("f%d", f), aggHotelPred(t, f), sites...))
	}
	if _, err := fed.DefineTable(aggHotelsDef(), frags...); err != nil {
		t.Fatal(err)
	}
	for f, frag := range frags {
		if err := fed.LoadFragment("hotels", frag, rows[f]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range fed.Sites() {
		if c := caps; c != nil && c(s.Name()) != nil {
			capStored(t, s, "hotels", *c(s.Name()))
		}
	}
	return fed
}

// noGroupCaps is the full capability record without grouping.
func noGroupCaps() *plan.PushCaps {
	c := plan.FullPushCaps()
	c.Group = false
	return &c
}

// aggRemoteFed builds the same layout over httptest remote.Server
// peers, one per fragment. caps, when non-nil, replaces the
// capabilities the coordinator's sites see in each peer's source.
func aggRemoteFed(t testing.TB, caps *plan.PushCaps) *Federation {
	t.Helper()
	fed := New(NewAgoric())
	var frags []*Fragment
	for f, rows := range aggHotelRows() {
		tbl := storage.NewTable(aggHotelsDef())
		for _, r := range rows {
			if _, err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		srv := remote.NewServer()
		srv.PublishTable(tbl)
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		sources, err := remote.Dial(ts.URL, "").Tables(context.Background())
		if err != nil || len(sources) != 1 {
			t.Fatalf("tables: %v (%d sources)", err, len(sources))
		}
		site := NewSite(fmt.Sprintf("peer%d", f))
		if caps != nil {
			site.AddSource(&cappedSource{PushStreamingSource: sources[0].(wrapper.PushStreamingSource), caps: *caps})
		} else {
			site.AddSource(sources[0])
		}
		if err := fed.AddSite(site); err != nil {
			t.Fatal(err)
		}
		frags = append(frags, NewFragment(fmt.Sprintf("f%d", f), aggHotelPred(t, f), site))
	}
	if _, err := fed.DefineTable(aggHotelsDef(), frags...); err != nil {
		t.Fatal(err)
	}
	return fed
}

// cellKey renders a cell for sorting, FLOATs coarsely so the two sides
// of a comparison sort alike.
func cellKey(v value.Value) string {
	if v.Kind() == value.KindFloat {
		return fmt.Sprintf("f%.6g", v.Float())
	}
	return v.String()
}

// sameCell compares two cells, FLOATs within 1e-9 relative error.
func sameCell(a, b value.Value) bool {
	if a.Kind() == value.KindFloat && b.Kind() == value.KindFloat {
		x, y := a.Float(), b.Float()
		return x == y || math.Abs(x-y) <= 1e-9*math.Max(math.Abs(x), math.Abs(y))
	}
	return a.Kind() == b.Kind() && a.String() == b.String()
}

// sameAggResult reports whether two results hold the same rows: in
// order when ordered, as multisets otherwise.
func sameAggResult(got, want []storage.Row, ordered bool) bool {
	if len(got) != len(want) {
		return false
	}
	if !ordered {
		key := func(r storage.Row) string {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = cellKey(v)
			}
			return strings.Join(parts, "\x1f")
		}
		sortRows := func(rows []storage.Row) []storage.Row {
			out := append([]storage.Row(nil), rows...)
			sort.SliceStable(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
			return out
		}
		got, want = sortRows(got), sortRows(want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return false
		}
		for j := range got[i] {
			if !sameCell(got[i][j], want[i][j]) {
				return false
			}
		}
	}
	return true
}

// checkAggregate runs q on fed and compares it with the oracle's
// answer: the same columns, the same rows. It returns the trace.
func checkAggregate(t *testing.T, name string, fed *Federation, oracle *exec.Database, q workload.GenQuery) *QueryTrace {
	t.Helper()
	want, werr := oracle.Exec(q.SQL)
	got, trace, err := fed.QueryTraced(context.Background(), q.SQL)
	if werr != nil || err != nil {
		if (werr == nil) != (err == nil) {
			t.Fatalf("%s: %s: err = %v, oracle err = %v", name, q.SQL, err, werr)
		}
		return trace
	}
	if strings.Join(got.Columns, ",") != strings.Join(want.Columns, ",") {
		t.Fatalf("%s: %s: columns %v, oracle %v", name, q.SQL, got.Columns, want.Columns)
	}
	ordered := strings.Contains(q.SQL, "ORDER BY")
	if !sameAggResult(got.Rows, want.Rows, ordered) {
		t.Fatalf("%s: %s:\n got    %v\n oracle %v", name, q.SQL, got.Rows, want.Rows)
	}
	return trace
}

func pushedTotal(tr *QueryTrace) int {
	n := 0
	for _, v := range tr.PushedRows {
		n += v
	}
	return n
}

// TestAggregateDifferential runs the seeded aggregate corpus on every
// regime against the oracle. A site folds whether or not its source
// can, so a fragment ships at most one partial row per group in the
// pushed and withheld regimes alike; a Withheld shape ships rows in
// every regime, the same rows.
func TestAggregateDifferential(t *testing.T) {
	oracle := aggOracle(t)
	feds := map[string]*Federation{
		"pushed":   aggFed(t, nil),
		"withheld": aggFed(t, func(string) *plan.PushCaps { return noGroupCaps() }),
		"mixed": aggFed(t, func(site string) *plan.PushCaps {
			switch site {
			case "a0-0", "a1-0":
				return noGroupCaps()
			case "a2-0":
				return &plan.PushCaps{Classes: []plan.FilterClass{plan.ClassEq}, Group: true}
			}
			return nil
		}),
		"weak":            aggFed(t, func(string) *plan.PushCaps { return &plan.PushCaps{} }),
		"remote":          aggRemoteFed(t, nil),
		"remote-withheld": aggRemoteFed(t, noGroupCaps()),
	}
	names := make([]string, 0, len(feds))
	for n := range feds {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, q := range workload.HotelAggregates(120, 31) {
		traces := map[string]*QueryTrace{}
		for _, n := range names {
			traces[n] = checkAggregate(t, n, feds[n], oracle, q)
		}
		pushed, withheld := traces["pushed"], traces["withheld"]
		if pushed == nil || withheld == nil {
			continue
		}
		if q.Withheld {
			if pushedTotal(pushed) != pushedTotal(withheld) {
				t.Fatalf("%s: withheld shape pushed %v, want the row ship %v", q.SQL, pushed.PushedRows, withheld.PushedRows)
			}
			continue
		}
		limit := 10 // city × health_club, NULL city included
		if !strings.Contains(q.SQL, "GROUP BY") {
			limit = 1
		}
		for _, tr := range []*QueryTrace{pushed, withheld} {
			for k, n := range tr.PushedRows {
				if n > limit {
					t.Fatalf("%s: %s pushed %d rows, want at most %d partials", q.SQL, k, n, limit)
				}
			}
		}
	}
}

// TestAggregatePushdownShipsPartials pins the layer evidence on one
// query: each fragment ships one partial row per group, and where the
// sources cannot group they ship every row to their sites, which fold
// them before the wire.
func TestAggregatePushdownShipsPartials(t *testing.T) {
	const sql = "SELECT health_club, COUNT(*), AVG(corporate_rate) FROM hotels GROUP BY health_club"
	_, pushed, err := aggFed(t, nil).QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	fed := aggFed(t, nil)
	var srcs []*cappedSource
	for _, s := range fed.Sites() {
		srcs = append(srcs, capStored(t, s, "hotels", *noGroupCaps()))
	}
	_, withheld, err := fed.QueryTraced(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 4; f++ {
		k := fmt.Sprintf("hotels/f%d", f)
		if pushed.PushedRows[k] != 2 || withheld.PushedRows[k] != 2 {
			t.Errorf("%s: pushed %d, withheld %d; want 2 partials each", k, pushed.PushedRows[k], withheld.PushedRows[k])
		}
	}
	if n := shippedBy(srcs); n != 80 {
		t.Errorf("sources that cannot group shipped %d rows, want all 80", n)
	}
	// health_club + COUNT + AVG's sum and count: four cells a partial.
	if pushed.CellsShipped != 8*4 {
		t.Errorf("cells shipped = %d, want 32", pushed.CellsShipped)
	}
}

// dyingSource serves its fragment like a full engine, then fails at
// the end of the stream instead of reporting EOF: a replica that dies
// after shipping every partial row.
type dyingSource struct {
	*wrapper.ERPSource
	opened int
}

func (s *dyingSource) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	s.opened++
	st, applied, err := s.ERPSource.FetchPushStream(ctx, filters, push)
	if err != nil {
		return nil, applied, err
	}
	return &dyingStream{RowStream: st}, applied, nil
}

type dyingStream struct{ storage.RowStream }

func (s *dyingStream) Next() (storage.Row, error) {
	r, err := s.RowStream.Next()
	if err == io.EOF {
		return nil, errors.New("replica died after its partials")
	}
	return r, err
}

// TestAggregateFailoverAfterPartials: a replica that ships its partial
// rows and then dies is failed over; its partials are discarded and the
// next replica's are used, so nothing is counted twice.
func TestAggregateFailoverAfterPartials(t *testing.T) {
	oracle := aggOracle(t)
	fed := New(replicaOrder{})
	rows := aggHotelRows()
	var dying []*dyingSource
	var frags []*Fragment
	for f := 0; f < 4; f++ {
		tbl := storage.NewTable(aggHotelsDef())
		for _, r := range rows[f] {
			if _, err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
		src := &dyingSource{ERPSource: wrapper.NewERPSource("hotels", tbl)}
		dying = append(dying, src)
		flaky, stored := NewSite(fmt.Sprintf("dying%d", f)), NewSite(fmt.Sprintf("stored%d", f))
		flaky.AddSource(src)
		for _, s := range []*Site{flaky, stored} {
			if err := fed.AddSite(s); err != nil {
				t.Fatal(err)
			}
		}
		frags = append(frags, NewFragment(fmt.Sprintf("f%d", f), aggHotelPred(t, f), flaky, stored))
	}
	if _, err := fed.DefineTable(aggHotelsDef(), frags...); err != nil {
		t.Fatal(err)
	}
	for f, frag := range frags {
		if err := fed.LoadFragment("hotels", frag, rows[f]); err != nil {
			t.Fatal(err)
		}
	}
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(available), AVG(miles_to_airport) FROM hotels",
		"SELECT city, COUNT(*), SUM(corporate_rate) FROM hotels GROUP BY city",
	} {
		tr := checkAggregate(t, "failover", fed, oracle, workload.GenQuery{SQL: sql})
		if tr.Failovers != 4 {
			t.Errorf("%s: failovers = %d, want 4", sql, tr.Failovers)
		}
	}
	for f, src := range dying {
		if src.opened != 2 {
			t.Errorf("dying replica %d opened %d times, want 2", f, src.opened)
		}
	}
}

// TestAggregatePartialResults: with PartialResults a fragment whose
// every replica is down drops out whole; the answer is the live
// fragments' aggregate.
func TestAggregatePartialResults(t *testing.T) {
	fed := aggFed(t, nil)
	fed.PartialResults = true
	for _, s := range []string{"a1-0", "a1-1"} {
		site, err := fed.Site(s)
		if err != nil {
			t.Fatal(err)
		}
		site.SetDown(true)
	}
	live := exec.NewDatabase()
	rows := aggHotelRows()
	if err := live.LoadRows(aggHotelsDef(), append(append(append([]storage.Row(nil), rows[0]...), rows[2]...), rows[3]...)); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT COUNT(*), SUM(available), MAX(corporate_rate) FROM hotels",
		"SELECT chain, COUNT(*), AVG(available) FROM hotels GROUP BY chain",
	} {
		tr := checkAggregate(t, "partial", fed, live, workload.GenQuery{SQL: sql})
		if !tr.Degraded || tr.FragmentErrors["hotels/f1"] == nil {
			t.Errorf("%s: trace %+v, want f1 degraded", sql, tr)
		}
	}
}

// TestAggregateEligibility: only layouts where no key can reach the
// combine twice fold at the sites. Overlapping predicates, predicates
// on a non-key column, a site hosting two fragments, and a nil
// predicate beside siblings all ship rows, as the trace shows; the
// answers still match the oracle.
func TestAggregateEligibility(t *testing.T) {
	const sql = "SELECT city, COUNT(*), SUM(available) FROM hotels GROUP BY city"
	oracle := aggOracle(t)
	rows := aggHotelRows()
	all := append(append(append(append([]storage.Row(nil), rows[0]...), rows[1]...), rows[2]...), rows[3]...)
	half := func(lo bool) []storage.Row {
		if lo {
			return all[:40]
		}
		return all[40:]
	}
	type frag struct {
		pred string
		site string
		rows []storage.Row
	}
	for _, tc := range []struct {
		name   string
		frags  []frag
		pushes bool
	}{
		{"disjoint key ranges", []frag{
			{"hotel BETWEEN 'chain-00' AND 'chain-03-z'", "s0", half(true)},
			{"hotel BETWEEN 'chain-04' AND 'chain-07-z'", "s1", half(false)},
		}, true},
		{"one fragment, no predicate", []frag{{"", "s0", all}}, true},
		{"overlapping key ranges", []frag{
			{"hotel BETWEEN 'chain-00' AND 'chain-04-z'", "s0", half(true)},
			{"hotel BETWEEN 'chain-04' AND 'chain-07-z'", "s1", half(false)},
		}, false},
		{"predicate on a non-key column", []frag{
			{"chain IN ('chain-00', 'chain-01', 'chain-02', 'chain-03')", "s0", half(true)},
			{"chain IN ('chain-04', 'chain-05', 'chain-06', 'chain-07')", "s1", half(false)},
		}, false},
		{"shared site", []frag{
			{"hotel BETWEEN 'chain-00' AND 'chain-03-z'", "s0", half(true)},
			{"hotel BETWEEN 'chain-04' AND 'chain-07-z'", "s0", half(false)},
		}, false},
		{"nil predicate with siblings", []frag{
			{"hotel BETWEEN 'chain-00' AND 'chain-03-z'", "s0", half(true)},
			{"", "s1", half(false)},
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed := New(NewAgoric())
			sites := map[string]*Site{}
			var frags []*Fragment
			for i, fl := range tc.frags {
				s := sites[fl.site]
				if s == nil {
					s = NewSite(fl.site)
					sites[fl.site] = s
					if err := fed.AddSite(s); err != nil {
						t.Fatal(err)
					}
				}
				var pred sqlparse.Expr
				if fl.pred != "" {
					pred = aggPred(t, fl.pred)
				}
				frags = append(frags, NewFragment(fmt.Sprintf("f%d", i), pred, s))
			}
			if _, err := fed.DefineTable(aggHotelsDef(), frags...); err != nil {
				t.Fatal(err)
			}
			for i, frag := range frags {
				if err := fed.LoadFragment("hotels", frag, tc.frags[i].rows); err != nil {
					t.Fatal(err)
				}
			}
			tr := checkAggregate(t, tc.name, fed, oracle, workload.GenQuery{SQL: sql})
			for k, n := range tr.PushedRows {
				// Five cities (NULL among them) fold to at most five
				// partials; every fragment holds forty rows or more.
				if folded := n <= 5; folded != tc.pushes {
					t.Errorf("%s pushed %d rows; folded = %v, want %v", k, n, folded, tc.pushes)
				}
			}
		})
	}
}

func aggPred(t testing.TB, src string) sqlparse.Expr {
	t.Helper()
	e, err := sqlparse.ParseExpr(src)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestExplainMarksPushedGroup: EXPLAIN names the grouping each
// fragment folds, and no grouping where the statement ships rows.
func TestExplainMarksPushedGroup(t *testing.T) {
	fed := aggFed(t, nil)
	render := func(sql string) string {
		res, err := fed.Query(context.Background(), "EXPLAIN "+sql)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range res.Rows {
			b.WriteString(r[0].Str() + "\n")
		}
		return b.String()
	}
	out := render("SELECT city, COUNT(*) FROM hotels GROUP BY city")
	if n := strings.Count(out, "γ(city; COUNT(*)) pushed"); n != 4 {
		t.Errorf("%d fragments marked with the pushed group, want 4:\n%s", n, out)
	}
	if out := render("SELECT DISTINCT city, COUNT(*) FROM hotels GROUP BY city"); strings.Contains(out, "pushed") {
		t.Errorf("DISTINCT marked as pushed:\n%s", out)
	}
}
