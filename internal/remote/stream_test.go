package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// numbersTable builds a table with n rows for chunking tests.
func numbersTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	def := schema.MustTable("numbers", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "bucket", Kind: value.KindInt},
	}, "id")
	tbl := storage.NewTable(def)
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(storage.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 5))}); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func streamSource(t *testing.T, hs *httptest.Server, opts ...DialOption) *Source {
	t.Helper()
	c := Dial(hs.URL, "", opts...)
	srcs, err := c.Tables(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 1 {
		t.Fatalf("got %d sources", len(srcs))
	}
	return srcs[0].(*Source)
}

// plainStream opens src's push stream with nothing pushed.
func plainStream(ctx context.Context, src *Source, filters []wrapper.Filter) (storage.RowStream, error) {
	st, _, err := src.FetchPushStream(ctx, filters, wrapper.Pushdown{})
	return st, err
}

// TestFetchStreamRoundTrip asserts the streaming path returns exactly
// the rows the one-shot path does, across multiple chunks.
func TestFetchStreamRoundTrip(t *testing.T) {
	srv := NewServer()
	srv.StreamBatchRows = 7 // force many chunks for 100 rows
	srv.PublishTable(numbersTable(t, 100), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	want, err := src.Fetch(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := plainStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Columns(); len(got) != 2 || got[0] != "id" {
		t.Fatalf("Columns = %v", got)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("stream %d rows, fetch %d", len(rows), len(want))
	}
	for i := range rows {
		if rows[i][0].Int() != want[i][0].Int() {
			t.Fatalf("row %d: stream %v, fetch %v", i, rows[i], want[i])
		}
	}
}

// TestFetchStreamPushdownAndRecheck asserts filters apply whether or
// not the peer advertises their column: the server ANDs every filter
// into the pushed WHERE.
func TestFetchStreamPushdownAndRecheck(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 50), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	// "bucket" is not advertised.
	st, err := plainStream(context.Background(), src, []wrapper.Filter{
		{Column: "bucket", Value: value.NewInt(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("bucket filter: got %d rows, want 10", len(rows))
	}
	// "id" is advertised.
	st, err = plainStream(context.Background(), src, []wrapper.Filter{
		{Column: "id", Value: value.NewInt(7)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, err = storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 7 {
		t.Fatalf("id filter: got %v", rows)
	}
}

// TestFilterOnUnadvertisedColumn: a filter on a column the peer does
// not advertise still holds for every row, whatever else is pushed
// with it — a projection that drops the column, or a limit the peer
// applies. bucket = 3 keeps 20 of the 100 rows.
func TestFilterOnUnadvertisedColumn(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 100), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)
	ctx := context.Background()
	filters := []wrapper.Filter{{Column: "bucket", Value: value.NewInt(3)}}
	inBucket3 := func(name string, rows []storage.Row, want int) {
		t.Helper()
		if len(rows) != want {
			t.Errorf("%s: %d rows, want %d", name, len(rows), want)
		}
		for _, r := range rows {
			if r[0].Int()%5 != 3 {
				t.Errorf("%s: row %v is not in bucket 3", name, r)
			}
		}
	}
	for _, tc := range []struct {
		name string
		push wrapper.Pushdown
		want int
	}{
		{"projection", wrapper.Pushdown{Cols: []string{"id"}}, 20},
		{"limit", wrapper.Pushdown{Limit: 10}, 10},
	} {
		st, _, err := src.FetchPushStream(ctx, filters, tc.push)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := storage.CollectRows(st)
		if err != nil {
			t.Fatal(err)
		}
		inBucket3(tc.name, rows, tc.want)
	}
	// Through the site-side open, the filter is a conjunct of the WHERE.
	where := wrapper.AndFilters(src.Schema(), nil, filters)
	st, err := wrapper.OpenPushStream(ctx, src, wrapper.Pushdown{Where: where, Cols: []string{"id"}, Limit: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil {
		t.Fatal(err)
	}
	inBucket3("OpenPushStream", rows, 10)
}

// TestFetchStreamReuseAfterClose pins the reuse-after-Close contract on
// the network stream: Next must fail typed, and a second Close must be
// a safe no-op (not a double body close).
func TestFetchStreamReuseAfterClose(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 20), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := plainStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Next(); err != nil {
		t.Fatalf("first Next: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := st.Next(); !errors.Is(err, storage.ErrStreamClosed) {
		t.Fatalf("Next after Close = %v, want ErrStreamClosed", err)
	}
}

// TestFetchStreamTruncation asserts a body that ends without the eof
// terminator surfaces ErrTruncated — never a silent short result.
func TestFetchStreamTruncation(t *testing.T) {
	// A fake server that sends one valid chunk and hangs up without the
	// terminator.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"numbers","columns":[{"name":"id","kind":"int","not_null":true}],"key":["id"]}]`)
			return
		}
		serveFrames(w, rowsFrame(storage.Row{value.NewInt(1)}, storage.Row{value.NewInt(2)}))
	}))
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := plainStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 2; i++ {
		if _, err := st.Next(); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
	}
	if _, err := st.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream Next = %v, want ErrTruncated", err)
	}
	// Terminal errors are sticky.
	if _, err := st.Next(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("second Next = %v, want sticky ErrTruncated", err)
	}
}

// TestFetchStreamServerError asserts a mid-stream server failure
// arrives as an error frame, typed as a failure rather than EOF.
func TestFetchStreamServerError(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"numbers","columns":[{"name":"id","kind":"int","not_null":true}],"key":["id"]}]`)
			return
		}
		serveFrames(w, rowsFrame(storage.Row{value.NewInt(1)}), jsonFrame(`{"error":"disk on fire"}`))
	}))
	defer hs.Close()
	src := streamSource(t, hs)

	st, err := plainStream(context.Background(), src, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = st.Next()
	if err == nil || err == io.EOF {
		t.Fatalf("server error surfaced as %v", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("error %q does not carry the server message", err)
	}
}

// TestFetchStreamNotFound asserts unknown tables fail at open, with the
// server's message.
func TestFetchStreamNotFound(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 1), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)
	src.def = schema.MustTable("ghosts", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	if _, err := plainStream(context.Background(), src, nil); err == nil {
		t.Fatal("expected open error for unknown table")
	}
}

// TestClampBatchRows pins the server's rows-per-chunk table.
func TestClampBatchRows(t *testing.T) {
	for _, tc := range []struct{ serverDefault, want int }{
		{0, storage.DefaultBatchRows},
		{64, 64},
		{1 << 20, maxStreamBatchRows},
		{-3, storage.DefaultBatchRows},
	} {
		if got := clampBatchRows(tc.serverDefault); got != tc.want {
			t.Errorf("clampBatchRows(%d) = %d, want %d", tc.serverDefault, got, tc.want)
		}
	}
}
