package remote

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cohera/internal/plan"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// bucketGrouping counts each bucket's ids and sums them.
var bucketGrouping = &plan.Grouping{Keys: []string{"bucket"},
	Aggs: []plan.AggCall{{Func: "COUNT"}, {Func: "SUM", Col: "id"}}}

// bucketPartials is what bucketGrouping folds ids 0..n-1 with
// id < limit into, keyed by bucket.
func bucketPartials(n, limit int) map[int64][2]int64 {
	out := map[int64][2]int64{}
	for i := 0; i < n && i < limit; i++ {
		p := out[int64(i%5)]
		out[int64(i%5)] = [2]int64{p[0] + 1, p[1] + int64(i)}
	}
	return out
}

func checkPartials(t *testing.T, rows []storage.Row, want map[int64][2]int64) {
	t.Helper()
	if len(rows) != len(want) {
		t.Fatalf("%d partial rows %v, want %d", len(rows), rows, len(want))
	}
	for _, r := range rows {
		if len(r) != 3 {
			t.Fatalf("partial row %v, want bucket, count, sum", r)
		}
		if w := want[r[0].Int()]; r[1].Int() != w[0] || r[2].Int() != w[1] {
			t.Errorf("bucket %d: count %v sum %v, want %v", r[0].Int(), r[1], r[2], w)
		}
	}
}

// TestFetchStreamGrouped: a grouped request comes back as the
// grouping's partial rows, folded over the rows the pushed WHERE keeps
// — by the scan kernel for a stored table, by the server for a source
// that cannot group.
func TestFetchStreamGrouped(t *testing.T) {
	where, err := sqlparse.ParseExpr("id < 37")
	if err != nil {
		t.Fatal(err)
	}
	tbl := numbersTable(t, 100)
	var rows []storage.Row
	for i := int64(0); i < 100; i++ {
		rows = append(rows, storage.Row{value.NewInt(i), value.NewInt(i % 5)})
	}
	static, err := wrapper.NewStaticSource("numbers", tbl.Def(), rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		publish func(*Server)
	}{
		{"kernel", func(s *Server) { s.PublishTable(tbl) }},
		{"server fold", func(s *Server) { s.Publish(static) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer()
			srv.StreamBatchRows = 2
			tc.publish(srv)
			hs := httptest.NewServer(srv)
			defer hs.Close()
			src := streamSource(t, hs)
			if !src.Capabilities().Push.Group {
				t.Fatal("a peer does not advertise grouping")
			}
			st, applied, err := src.FetchPushStream(context.Background(), nil, wrapper.Pushdown{Where: where, Group: bucketGrouping})
			if err != nil {
				t.Fatal(err)
			}
			got, err := storage.CollectRows(st)
			if err != nil {
				t.Fatal(err)
			}
			if !applied.Group || !applied.Where {
				t.Fatalf("receipt %+v, want where and group", applied)
			}
			checkPartials(t, got, bucketPartials(100, 37))
		})
	}
}

// TestGroupAckMustEcho: a peer that grouped by other keys or other
// aggregates than asked, or grouped unasked, sends partial rows of
// another width, and the stream fails whatever its ack names. Rows in
// the requested grouping's layout read.
func TestGroupAckMustEcho(t *testing.T) {
	sku, price, qty := value.NewString("P1"), value.NewFloat(1.5), value.NewInt(2)
	n := value.NewInt(3)
	group := &plan.Grouping{Keys: []string{"sku"}, Aggs: []plan.AggCall{{Func: "COUNT"}}}
	grouped := wrapper.Pushdown{Group: group}
	for _, tc := range []layoutCase{
		{"other keys", grouped, `{"group":{"keys":["sku","price"],"aggs":[{"fn":"COUNT"}]}}`, storage.Row{sku, price, n}, false},
		{"other aggregates", grouped, `{"group":{"keys":["sku"],"aggs":[{"fn":"COUNT"},{"fn":"SUM","col":"qty"}]}}`, storage.Row{sku, n, qty}, false},
		{"unasked", wrapper.Pushdown{}, `{"group":{"keys":["sku"],"aggs":[{"fn":"COUNT"}]}}`, storage.Row{sku, n}, false},
		{"ignored", grouped, "", storage.Row{sku, price, qty}, false},
		{"narrower", grouped, "", storage.Row{n}, false},
		{"echoed", grouped, `{"group":{"keys":["sku"],"aggs":[{"fn":"COUNT"}]}}`, storage.Row{sku, n}, true},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRowLayout(t, tc) })
	}
}

// TestGroupRequestValidated: a grouped request with a projection, or
// with an aggregate no fold can run, is refused with 400.
func TestGroupRequestValidated(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 10))
	hs := httptest.NewServer(srv)
	defer hs.Close()
	for _, body := range []string{
		`{"table":"numbers","cols":["id"],"group":{"keys":["bucket"]}}`,
		`{"table":"numbers","group":{"aggs":[{"fn":"MEDIAN","col":"id"}]}}`,
		`{"table":"numbers","group":{"aggs":[{"fn":"SUM"}]}}`,
	} {
		resp, err := http.Post(hs.URL+"/fetchstream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
}
