package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cohera/internal/admission"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// TestClient429MapsToTypedOverload: a 429 response must surface as the
// admission package's typed overload error — Retry-After parsed, shed
// reason preserved — and must never be retried, even under a retry
// policy that would happily replay a 500.
func TestClient429MapsToTypedOverload(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "2")
		w.Header().Set(ShedReasonHeader, "queue-full")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		//lint:ignore errdrop test handler; the status already carries the refusal
		_ = json.NewEncoder(w).Encode(errorResponse{Error: "overloaded"})
	}))
	defer ts.Close()

	c := Dial(ts.URL, "", WithRetry(resilience.Retry{MaxAttempts: 5, BaseDelay: time.Millisecond, Seed: 1}))
	shedsBefore := metClientReqs("shed").Value()
	_, err := c.Tables(context.Background())
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("429 error = %v, want ErrOverloaded in chain", err)
	}
	oe, ok := admission.AsOverload(err)
	if !ok {
		t.Fatalf("429 error lost the typed detail: %v", err)
	}
	if oe.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After = %v, want 2s (parsed from header)", oe.RetryAfter)
	}
	if oe.Reason != "remote-queue-full" {
		t.Fatalf("shed reason = %q, want remote-queue-full", oe.Reason)
	}
	if hits.Load() != 1 {
		t.Fatalf("server hits = %d, want exactly 1 — a shed must never be blind-retried", hits.Load())
	}
	if got := metClientReqs("shed").Value() - shedsBefore; got != 1 {
		t.Fatalf("shed class counter advanced by %d, want 1", got)
	}
}

// TestClient429MissingRetryAfterDefaults: a malformed or absent
// Retry-After still yields a positive backoff hint.
func TestClient429MissingRetryAfterDefaults(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := Dial(ts.URL, "")
	_, err := c.Tables(context.Background())
	oe, ok := admission.AsOverload(err)
	if !ok || oe.RetryAfter <= 0 {
		t.Fatalf("headerless 429 = %v, want typed overload with positive default hint", err)
	}
}

// admittedServer is a published single-table Server behind an
// admission gate.
func admittedServer(t *testing.T, cfg admission.Config) (*Server, *httptest.Server) {
	t.Helper()
	def := schema.MustTable("t", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
	}, "id")
	tbl := storage.NewTable(def)
	if _, err := tbl.Insert(storage.Row{value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	srv := NewServer()
	srv.PublishTable(tbl)
	gate := admission.New(cfg)
	t.Cleanup(gate.Close)
	srv.Admission = gate
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestServerShedsDataPlaneWith429: past the tenant's rate the server
// answers /fetchstream with 429 + Retry-After; the round trip comes back to
// the caller as the same typed error a local gate would produce, with
// the wire tenant honored. Control-plane endpoints stay ungated.
func TestServerShedsDataPlaneWith429(t *testing.T) {
	clk := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	_, ts := admittedServer(t, admission.Config{
		MaxInFlight: 4, TenantRate: 1, TenantBurst: 1,
		Clock: func() time.Time { return clk },
	})
	c := Dial(ts.URL, "")
	src := streamSource(t, ts)
	ctx := admission.WithTenant(context.Background(), "acme")
	if _, err := src.Fetch(ctx, nil); err != nil {
		t.Fatalf("first fetch within burst: %v", err)
	}
	_, err := src.Fetch(ctx, nil)
	if !errors.Is(err, admission.ErrOverloaded) {
		t.Fatalf("over-rate fetch = %v, want ErrOverloaded", err)
	}
	oe, _ := admission.AsOverload(err)
	if oe.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want ≥ 1s (server sends whole seconds, ceiling)", oe.RetryAfter)
	}
	if oe.Reason != "remote-tenant-rate" {
		t.Fatalf("shed reason = %q, want remote-tenant-rate", oe.Reason)
	}
	// Another tenant has its own bucket.
	other := admission.WithTenant(context.Background(), "other")
	if _, err := src.Fetch(other, nil); err != nil {
		t.Fatalf("other tenant shed by acme's bucket: %v", err)
	}
	// The control plane (health, schema discovery) is never shed.
	if !c.Healthy(ctx) {
		t.Fatal("healthz must not be admission-gated")
	}
	if _, err := c.Tables(ctx); err != nil {
		t.Fatalf("tables must not be admission-gated: %v", err)
	}
}

// TestServerQueuesUnderWindowPressure: with a 1-wide window and a
// patient queue, concurrent fetches serialize instead of shedding.
func TestServerQueuesUnderWindowPressure(t *testing.T) {
	_, ts := admittedServer(t, admission.Config{
		MaxInFlight: 1, QueueDepth: 8, QueueTimeout: 5 * time.Second,
	})
	src := streamSource(t, ts)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := src.Fetch(context.Background(), nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatalf("queued fetch failed: %v", err)
	}
}
