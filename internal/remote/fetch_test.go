package remote

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/resilience"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// fakePeer serves a one-table /tables (parts: sku, price, qty) and
// hands /fetchstream to fetch.
func fakePeer(t *testing.T, fetch http.HandlerFunc, opts ...DialOption) *Source {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/tables" {
			fmt.Fprint(w, `[{"name":"parts","columns":[{"name":"sku","kind":"string","not_null":true},`+
				`{"name":"price","kind":"float"},{"name":"qty","kind":"int"}],"key":["sku"]}]`)
			return
		}
		fetch(w, r)
	}))
	t.Cleanup(hs.Close)
	return streamSource(t, hs, opts...)
}

// partsFrame is one /fetchstream chunk of full-width parts rows.
func partsFrame(skus ...string) []byte {
	rows := make([]storage.Row, len(skus))
	for i, s := range skus {
		rows[i] = storage.Row{value.NewString(s), value.NewFloat(1.5), value.NewInt(int64(i))}
	}
	return rowsFrame(rows...)
}

func skus(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r[0].Str()
	}
	return out
}

// layoutCase is one body a peer answers a pushed request with: an
// optional leading M frame (the ack an earlier release sent, naming
// what the peer applied) and one row in the layout the peer chose.
type layoutCase struct {
	name string
	push wrapper.Pushdown
	ack  string
	row  storage.Row
	ok   bool
}

// checkRowLayout serves each case from a fake parts peer. Rows are
// decoded as wide as the request asks — the projection, the grouping's
// partial layout, or the whole schema — whatever an ack claims, so a
// row of any other width fails the stream instead of handing rows of an
// unknown layout on. The receipt is always the request.
func checkRowLayout(t *testing.T, tc layoutCase) {
	t.Helper()
	src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		var lead []byte
		if tc.ack != "" {
			lead = jsonFrame(`{"pushed":` + tc.ack + `}`)
		}
		serveFrames(w, lead, rowsFrame(tc.row), eofFrame)
	})
	st, applied, err := src.FetchPushStream(context.Background(), nil, tc.push)
	if err != nil {
		t.Fatalf("%s: open: %v", tc.name, err)
	}
	if want := (wrapper.Applied{Cols: tc.push.Cols != nil, Group: tc.push.Group != nil}); applied != want {
		t.Errorf("%s: receipt %+v, want %+v", tc.name, applied, want)
	}
	rows, err := storage.CollectRows(st)
	switch {
	case tc.ok && (err != nil || len(rows) != 1 || len(rows[0]) != len(tc.row)):
		t.Errorf("%s: rows %v, %v; want the one row", tc.name, rows, err)
	case !tc.ok && (err == nil || !strings.Contains(err.Error(), "cells, want")):
		t.Errorf("%s: rows %v, %v; want the stream failed on the row's width", tc.name, rows, err)
	}
}

// TestLyingProjectionAckFailsOpen: a peer whose rows are narrower or
// wider than the requested projection fails the stream, whatever
// columns its ack names; an ack naming the requested columns in another
// case reads as usual.
func TestLyingProjectionAckFailsOpen(t *testing.T) {
	sku, price, qty := value.NewString("P1"), value.NewFloat(1.5), value.NewInt(2)
	cols := wrapper.Pushdown{Cols: []string{"sku", "price"}}
	for _, tc := range []layoutCase{
		{"narrower", cols, `{"cols":["sku"]}`, storage.Row{sku}, false},
		{"ignored", cols, `{"cols":["sku","price","qty"]}`, storage.Row{sku, price, qty}, false},
		{"ignored without ack", cols, "", storage.Row{sku, price, qty}, false},
		{"case-insensitive ack", cols, `{"cols":["SKU","Price"]}`, storage.Row{sku, price}, true},
		{"no ack", cols, "", storage.Row{sku, price}, true},
	} {
		checkRowLayout(t, tc)
	}
}

// TestEarlierAckStillReads: a server of an earlier release leads its
// body with a pushdown ack M frame. The client skips it, reads the same
// rows as from a body without it, and its receipt is the request.
func TestEarlierAckStillReads(t *testing.T) {
	where, err := sqlparse.ParseExpr("qty >= 0")
	if err != nil {
		t.Fatal(err)
	}
	push := wrapper.Pushdown{Where: where, Cols: []string{"sku", "price"}, Limit: 2}
	rows := []storage.Row{{value.NewString("P1"), value.NewFloat(1.5)}, {value.NewString("P2"), value.NewFloat(2.5)}}
	var got [2][]storage.Row
	for i, lead := range [][]byte{
		jsonFrame(`{"pushed":{"where":true,"cols":["sku","price"],"limit":true}}`),
		nil,
	} {
		src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
			serveFrames(w, lead, rowsFrame(rows...), eofFrame)
		})
		st, applied, err := src.FetchPushStream(context.Background(), nil, push)
		if err != nil {
			t.Fatal(err)
		}
		if want := (wrapper.Applied{Where: true, Cols: true, Limit: true}); applied != want {
			t.Fatalf("receipt %+v, want %+v", applied, want)
		}
		if got[i], err = storage.CollectRows(st); err != nil {
			t.Fatal(err)
		}
	}
	if !sameRows(got[0], rows) || !sameRows(got[1], rows) {
		t.Fatalf("rows after an ack %v, without %v; want %v", got[0], got[1], rows)
	}
}

// TestFetchRetries5xx: a 500 on the first attempt is retried under the
// client's policy.
func TestFetchRetries5xx(t *testing.T) {
	var hits atomic.Int64
	src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		serveFrames(w, partsFrame("P1", "P2"), eofFrame)
	}, WithRetry(resilience.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}))
	rows, err := src.Fetch(context.Background(), nil)
	if err != nil || len(rows) != 2 {
		t.Fatalf("Fetch = %v, %v; want 2 rows", skus(rows), err)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2", hits.Load())
	}
}

// TestFetchRetriesTruncationWithoutDuplicates: a body cut mid-stream is
// retried, and only the successful attempt's rows come back.
func TestFetchRetriesTruncationWithoutDuplicates(t *testing.T) {
	var hits atomic.Int64
	src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			serveFrames(w, partsFrame("P1", "P2")) // no terminator
			return
		}
		serveFrames(w, partsFrame("P1", "P2"), partsFrame("P3"), eofFrame)
	}, WithRetry(resilience.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}))
	rows, err := src.Fetch(context.Background(), nil)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if got := strings.Join(skus(rows), ","); got != "P1,P2,P3" {
		t.Fatalf("Fetch rows = %s, want P1,P2,P3 exactly once", got)
	}
	if hits.Load() != 2 {
		t.Fatalf("server hits = %d, want 2", hits.Load())
	}

	// Without a retry policy the cut surfaces, typed.
	hits.Store(0)
	src.client.retry = nil
	if _, err := src.Fetch(context.Background(), nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unretried cut = %v, want ErrTruncated", err)
	}
}

// TestFetchTimeoutEndsStalledStream: WithTimeout bounds the whole
// drain, so a server that stalls after its first chunk cannot hold
// Fetch past the deadline.
func TestFetchTimeoutEndsStalledStream(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		serveFrames(w, partsFrame("P1"))
		w.(http.Flusher).Flush()
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}, WithTimeout(50*time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := src.Fetch(context.Background(), nil)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("stalled Fetch = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Fetch outlived its 50ms timeout by 10s")
	}
}

// TestFetchBodyCap: a body past maxFetchBytes fails the Fetch, and the
// client stops reading there. Each frame is one 128 KiB row; the budget
// is checked against a frame's declared length before its payload is
// read or allocated.
func TestFetchBodyCap(t *testing.T) {
	const ceiling = 2 * maxFetchBytes
	frame := rowsFrame(storage.Row{value.NewString(strings.Repeat("A", 1<<17)), value.NewFloat(1.5), value.NewInt(1)})
	var written atomic.Int64
	src := fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", framesContentType)
		for written.Load() < ceiling {
			n, err := w.Write(frame)
			written.Add(int64(n))
			if err != nil || r.Context().Err() != nil {
				return
			}
		}
		w.Write(eofFrame)
	}, WithRetry(resilience.Retry{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}))
	rows, err := src.Fetch(context.Background(), nil)
	if !errors.Is(err, errFetchTooLarge) || rows != nil {
		t.Fatalf("Fetch of a %d-byte body = %d rows, %v; want errFetchTooLarge", int64(ceiling), len(rows), err)
	}
	// The cap is not retried, and the server saw the client hang up
	// long before its ceiling (socket buffers hold a few MiB).
	if got := written.Load(); got > maxFetchBytes+16<<20 {
		t.Fatalf("server wrote %d bytes before the client hung up, cap %d", got, maxFetchBytes)
	}

	// A header that declares more than the budget has left fails at
	// once: the client never waits for, or allocates, that payload.
	src = fakePeer(t, func(w http.ResponseWriter, r *http.Request) {
		serveFrames(w, frame, binary.AppendUvarint([]byte{frameRows}, maxFetchBytes))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	if _, err := src.Fetch(context.Background(), nil); !errors.Is(err, errFetchTooLarge) {
		t.Fatalf("Fetch after an oversized header = %v, want errFetchTooLarge", err)
	}
}
