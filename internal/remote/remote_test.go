package remote

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/federation"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

func quotesTable(t *testing.T) *storage.Table {
	t.Helper()
	def := schema.MustTable("quotes", []schema.Column{
		{Name: "sku", Kind: value.KindString, NotNull: true},
		{Name: "price", Kind: value.KindMoney},
		{Name: "updated", Kind: value.KindTime},
		{Name: "lead", Kind: value.KindDuration},
		{Name: "hot", Kind: value.KindBool},
		{Name: "score", Kind: value.KindFloat},
		{Name: "note", Kind: value.KindString},
	}, "sku")
	tbl := storage.NewTable(def)
	if err := tbl.CreateIndex("sku"); err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{value.NewString("P1"), value.NewMoney(9950, "USD"),
			value.NewTime(mustParseTime(t, "2001-05-21")), value.Days(2, value.BusinessDays),
			value.NewBool(true), value.NewFloat(0.75), value.Null},
		{value.NewString("P2"), value.NewMoney(350, "FRF"),
			value.NewTime(mustParseTime(t, "2001-05-22")), value.Days(1, value.CalendarDays),
			value.NewBool(false), value.NewFloat(-1.5), value.NewString("backorder")},
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func mustParseTime(t *testing.T, s string) time.Time {
	t.Helper()
	v, err := value.Parse(value.KindTime, s)
	if err != nil {
		t.Fatal(err)
	}
	return v.Time()
}

func TestDiscoveryAndFetchRoundTrip(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(quotesTable(t), "sku")
	hs := httptest.NewServer(srv)
	defer hs.Close()

	c := Dial(hs.URL, "")
	if !c.Healthy(context.Background()) {
		t.Fatal("healthz failed")
	}
	sources, err := c.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(sources) != 1 {
		t.Fatalf("sources = %d", len(sources))
	}
	src := sources[0]
	def := src.Schema()
	if def.Name != "quotes" || len(def.Columns) != 7 || def.Key[0] != "sku" {
		t.Fatalf("schema = %v", def)
	}
	if !src.Capabilities().CanPush("sku") || !src.Capabilities().Volatile {
		t.Errorf("capabilities = %+v", src.Capabilities())
	}
	rows, err := src.Fetch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Every kind survives the trip.
	byKey := map[string]storage.Row{}
	for _, r := range rows {
		byKey[r[0].Str()] = r
	}
	p1 := byKey["P1"]
	if m, cur := p1[1].Money(); m != 9950 || cur != "USD" {
		t.Errorf("money = %d %s", m, cur)
	}
	if p1[2].Time().Year() != 2001 {
		t.Errorf("time = %v", p1[2])
	}
	if d, sem := p1[3].Duration(); sem != value.BusinessDays || d.Hours() != 48 {
		t.Errorf("duration = %v %v", d, sem)
	}
	if !p1[4].Bool() || p1[5].Float() != 0.75 || !p1[6].IsNull() {
		t.Errorf("bool/float/null = %v", p1)
	}
	p2 := byKey["P2"]
	if p2[5].Float() != -1.5 || p2[6].Str() != "backorder" {
		t.Errorf("p2 = %v", p2)
	}
}

func TestRemotePushdown(t *testing.T) {
	tbl := quotesTable(t)
	srv := NewServer()
	erp := wrapper.NewERPSource("quotes", tbl, "sku")
	srv.Publish(erp)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	sources, err := Dial(hs.URL, "").Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := sources[0].Fetch(context.Background(),
		[]wrapper.Filter{{Column: "sku", Value: value.NewString("P2")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != "P2" {
		t.Fatalf("pushed fetch = %v", rows)
	}
	// A filter on a column the peer does not advertise applies there too.
	rows, err = sources[0].Fetch(context.Background(),
		[]wrapper.Filter{{Column: "note", Value: value.NewString("backorder")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Str() != "P2" {
		t.Fatalf("unadvertised-column filter = %v", rows)
	}
}

func TestBearerToken(t *testing.T) {
	srv := NewServer()
	srv.Token = "sesame"
	srv.PublishTable(quotesTable(t))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	if Dial(hs.URL, "").Healthy(context.Background()) {
		t.Error("unauthenticated health check should fail")
	}
	if _, err := Dial(hs.URL, "wrong").Tables(context.Background()); err == nil {
		t.Error("wrong token should fail")
	}
	c := Dial(hs.URL, "sesame")
	if !c.Healthy(context.Background()) {
		t.Error("token client should pass")
	}
	if _, err := c.Tables(context.Background()); err != nil {
		t.Errorf("tables with token: %v", err)
	}
}

func TestServerErrors(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(quotesTable(t))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := Dial(hs.URL, "")
	// Unknown table.
	s := &Source{client: c, def: schema.MustTable("ghost", []schema.Column{
		{Name: "x", Kind: value.KindInt},
	})}
	if _, err := s.Fetch(context.Background(), nil); err == nil {
		t.Error("fetch of unknown table should fail")
	}
	// Rows leave only through /fetchstream; the one-shot endpoint is gone.
	var se *statusError
	if _, err := c.do(context.Background(), http.MethodPost, "/fetch", []byte(`{"table":"quotes"}`), true); !errors.As(err, &se) || se.code != http.StatusNotFound {
		t.Errorf("POST /fetch = %v, want 404", err)
	}
	// Unreachable server.
	dead := Dial("http://127.0.0.1:1", "")
	if dead.Healthy(context.Background()) {
		t.Error("dead server healthy")
	}
	if _, err := dead.Tables(context.Background()); err == nil {
		t.Error("dead server tables should fail")
	}
}

// TestFederationOverTheWire is the headline: two enterprises publish
// their tables over HTTP; a third party federates them and runs one
// query spanning both, with live updates visible on the next query.
func TestFederationOverTheWire(t *testing.T) {
	// Enterprise A.
	tblA := quotesTable(t)
	srvA := NewServer()
	srvA.PublishTable(tblA, "sku")
	hsA := httptest.NewServer(srvA)
	defer hsA.Close()
	// Enterprise B, same schema, different rows.
	defB := tblA.Def().Clone("quotes")
	tblB := storage.NewTable(defB)
	if _, err := tblB.Insert(storage.Row{
		value.NewString("P9"), value.NewMoney(100, "USD"),
		value.Null, value.Null, value.NewBool(false), value.NewFloat(1), value.Null,
	}); err != nil {
		t.Fatal(err)
	}
	srvB := NewServer()
	srvB.PublishTable(tblB)
	hsB := httptest.NewServer(srvB)
	defer hsB.Close()

	fed := federation.New(federation.NewAgoric())
	ctx := context.Background()
	var frags []*federation.Fragment
	for i, url := range []string{hsA.URL, hsB.URL} {
		sources, err := Dial(url, "").Tables(ctx)
		if err != nil {
			t.Fatal(err)
		}
		site := federation.NewSite(url)
		if err := fed.AddSite(site); err != nil {
			t.Fatal(err)
		}
		site.AddSource(sources[0])
		frags = append(frags, federation.NewFragment(
			map[int]string{0: "ent-a", 1: "ent-b"}[i], nil, site))
	}
	if _, err := fed.DefineTable(tblA.Def().Clone("quotes"), frags...); err != nil {
		t.Fatal(err)
	}
	res, err := fed.Query(ctx, "SELECT COUNT(*) FROM quotes")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 3 {
		t.Fatalf("federated count = %v", res.Rows[0][0])
	}
	// Enterprise A updates a quote; the next federated query sees it.
	id, row, err := tblA.GetByKey(value.NewString("P1"))
	if err != nil {
		t.Fatal(err)
	}
	row[1] = value.NewMoney(12345, "USD")
	if err := tblA.Update(id, row); err != nil {
		t.Fatal(err)
	}
	res, err = fed.Query(ctx, "SELECT price FROM quotes WHERE sku = 'P1'")
	if err != nil {
		t.Fatal(err)
	}
	if m, _ := res.Rows[0][0].Money(); m != 12345 {
		t.Errorf("live update invisible over the wire: %v", res.Rows[0][0])
	}
}

// TestNDJSONPeerFailsOver: a replica that answers /fetchstream in the
// NDJSON format of earlier releases is refused at open, so its fragment
// fails over to the next replica on Query and QueryStream; with no
// other replica the query fails typed, never short.
func TestNDJSONPeerFailsOver(t *testing.T) {
	tbl := quotesTable(t)
	good := NewServer()
	good.PublishTable(tbl, "sku")
	hsGood := httptest.NewServer(good)
	defer hsGood.Close()
	var oldHits atomic.Int64
	old := NewServer()
	old.PublishTable(tbl, "sku")
	hsOld := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/fetchstream" {
			old.ServeHTTP(w, r)
			return
		}
		// What such a peer answers `SELECT sku` with: the projection
		// ack, the projected rows, the terminator.
		oldHits.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprint(w, `{"pushed":{"cols":["sku"]}}`+"\n"+
			`{"rows":[[{"k":"string","s":"P1"}],[{"k":"string","s":"P2"}]]}`+"\n"+`{"eof":true}`+"\n")
	}))
	defer hsOld.Close()

	ctx := context.Background()
	// federate puts one fragment on a replica per URL; the first is
	// the cheapest bid, so it is tried first.
	federate := func(urls ...string) *federation.Federation {
		fed := federation.New(federation.NewAgoric())
		var sites []*federation.Site
		for i, url := range urls {
			sources, err := Dial(url, "").Tables(ctx)
			if err != nil {
				t.Fatal(err)
			}
			site := federation.NewSite(fmt.Sprintf("replica-%d", i))
			site.SetCost(federation.CostModel{Latency: time.Duration(i) * time.Millisecond})
			if err := fed.AddSite(site); err != nil {
				t.Fatal(err)
			}
			site.AddSource(sources[0])
			sites = append(sites, site)
		}
		if _, err := fed.DefineTable(tbl.Def().Clone("quotes"), federation.NewFragment("all", nil, sites...)); err != nil {
			t.Fatal(err)
		}
		return fed
	}
	const sql = "SELECT sku FROM quotes"

	fed := federate(hsOld.URL, hsGood.URL)
	res, err := fed.Query(ctx, sql)
	if err != nil || len(res.Rows) != tbl.Len() || oldHits.Load() == 0 {
		t.Fatalf("Query = %v, %v after %d NDJSON answers; want %d rows from the other replica", res, err, oldHits.Load(), tbl.Len())
	}
	hits := oldHits.Load()
	fed = federate(hsOld.URL, hsGood.URL)
	st, _, err := fed.QueryStream(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if rows, err := storage.CollectRows(st); err != nil || len(rows) != tbl.Len() || oldHits.Load() == hits {
		t.Fatalf("QueryStream = %d rows, %v after %d NDJSON answers; want %d rows from the other replica", len(rows), err, oldHits.Load()-hits, tbl.Len())
	}

	fed = federate(hsOld.URL)
	if res, err := fed.Query(ctx, sql); !errors.Is(err, errNotFrames) || !errors.Is(err, federation.ErrSiteFailure) {
		t.Fatalf("Query over one NDJSON replica = %v, %v; want a site failure carrying errNotFrames", res, err)
	}
	st, _, err = fed.QueryStream(ctx, sql)
	if err == nil {
		var rows []storage.Row
		rows, err = storage.CollectRows(st)
		if err == nil {
			t.Fatalf("QueryStream over one NDJSON replica drained clean with %d rows", len(rows))
		}
	}
	if !errors.Is(err, errNotFrames) {
		t.Fatalf("QueryStream over one NDJSON replica = %v; want errNotFrames in the chain", err)
	}
}

// TestFilterMeansSQLEquality pins what a wrapper.Filter means (see its
// doc comment): over the wire and on the gateway itself, the same
// filter keeps the same rows, for a value of every stored kind, a NULL
// value, a column the table lacks and a value of another kind. Values
// travel exactly, so a TIME with nanoseconds still matches.
func TestFilterMeansSQLEquality(t *testing.T) {
	def := schema.MustTable("kinds", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString},
		{Name: "b", Kind: value.KindBool},
		{Name: "m", Kind: value.KindMoney},
		{Name: "tm", Kind: value.KindTime},
		{Name: "note", Kind: value.KindString},
	}, "id")
	at := time.Date(2001, 2, 3, 4, 5, 6, 789, time.UTC)
	tbl := storage.NewTable(def)
	for i := int64(0); i < 4; i++ {
		note := value.Null
		if i%2 == 0 {
			note = value.NewString("even")
		}
		row := storage.Row{value.NewInt(i), value.NewFloat(float64(i) + 0.5), value.NewString(fmt.Sprintf("O'Brien %d", i)),
			value.NewBool(i == 1), value.NewMoney(100*i, "USD"), value.NewTime(at.Add(time.Duration(i))), note}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	erp := wrapper.NewERPSource("kinds", tbl)
	srv := NewServer()
	srv.Publish(erp)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		f    wrapper.Filter
		rows int // -1: an evaluation error
	}{
		{"int", wrapper.Filter{Column: "id", Value: value.NewInt(2)}, 1},
		{"float", wrapper.Filter{Column: "f", Value: value.NewFloat(1.5)}, 1},
		{"string with a quote", wrapper.Filter{Column: "s", Value: value.NewString("O'Brien 3")}, 1},
		{"bool", wrapper.Filter{Column: "b", Value: value.NewBool(false)}, 3},
		{"money", wrapper.Filter{Column: "m", Value: value.NewMoney(200, "USD")}, 1},
		{"time", wrapper.Filter{Column: "tm", Value: value.NewTime(at.Add(3))}, 1},
		{"null is IS NULL", wrapper.Filter{Column: "note", Value: value.Null}, 2},
		{"unknown column dropped", wrapper.Filter{Column: "nosuch", Value: value.NewInt(1)}, 4},
		{"int against text", wrapper.Filter{Column: "id", Value: value.NewString("3")}, 1},
		{"float against int", wrapper.Filter{Column: "f", Value: value.NewInt(2)}, 0},
		{"money against int", wrapper.Filter{Column: "m", Value: value.NewInt(100)}, -1},
		{"other currency", wrapper.Filter{Column: "m", Value: value.NewMoney(100, "EUR")}, -1},
	} {
		filters := []wrapper.Filter{tc.f}
		want, werr := erp.Fetch(ctx, filters)
		got, err := src.Fetch(ctx, filters)
		if tc.rows < 0 {
			if werr == nil || err == nil {
				t.Errorf("%s: gateway %d rows, %v; remote %d rows, %v; want both to fail", tc.name, len(want), werr, len(got), err)
			}
			continue
		}
		if werr != nil || err != nil || len(want) != tc.rows || !sameRows(got, want) {
			t.Errorf("%s: gateway %v, %v; remote %v, %v; want the same %d rows", tc.name, want, werr, got, err, tc.rows)
		}
	}
}
