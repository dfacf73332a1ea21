package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/resilience"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/wrapper"
)

// DefaultTimeout bounds each client call unless WithTimeout overrides it.
const DefaultTimeout = 30 * time.Second

// TenantHeader carries the caller's tenant identity to the server's
// admission gate; DefaultTenant when the context is untagged.
const TenantHeader = "X-Cohera-Tenant"

// ShedReasonHeader carries the server-side shed reason of a 429 back
// to the client, so the typed overload error survives the wire.
const ShedReasonHeader = "X-Cohera-Shed-Reason"

// metClientReqs counts client calls by outcome class ("2xx", "4xx",
// "5xx", ... or "error" for transport failures that never got a status).
func metClientReqs(class string) *obs.Counter {
	return obs.Default().Counter("cohera_remote_client_requests_total",
		"Remote client calls by status class (error = transport failure).",
		obs.Labels{"class": class})
}

var (
	// metClientBytes counts request/response bodies (/tables, /digest,
	// /healthz); stream bytes, Fetch's included, count in
	// cohera_stream_bytes_total{side="client"}.
	metClientBytes = obs.Default().Counter("cohera_remote_client_bytes_read_total",
		"Response bytes read by the remote client outside /fetchstream.", nil)
	metClientSeconds = obs.Default().Histogram("cohera_remote_client_seconds",
		"Remote client call latency.", nil)
	metClientRetries = obs.Default().Counter("cohera_remote_client_retries_total",
		"Retries of idempotent remote reads (attempts beyond the first).", nil)
)

// Client talks to a remote Server.
type Client struct {
	base  string
	token string
	http  *http.Client
	retry *resilience.Retry
}

// DialOption customizes a Client.
type DialOption func(*Client)

// WithTimeout overrides the whole-call timeout (DefaultTimeout). d ≤ 0
// disables the timeout entirely, leaving cancellation to the context.
// Source.Fetch applies it to the whole drain, retries included; a
// FetchPushStream stream is bounded by its caller's context alone.
func WithTimeout(d time.Duration) DialOption {
	return func(c *Client) {
		if d < 0 {
			d = 0
		}
		c.http.Timeout = d
	}
}

// WithTransport overrides the client's HTTP transport — the seam a
// fault.RoundTripper plugs into. nil restores the default transport.
func WithTransport(rt http.RoundTripper) DialOption {
	return func(c *Client) { c.http.Transport = rt }
}

// WithRetry installs a retry policy for idempotent reads (Tables,
// Fetch, Healthy, Digest). Transport failures, 5xx responses and
// streams cut short are retried with capped exponential backoff and
// full jitter; 4xx responses are the caller's fault and fail
// immediately. A retried Fetch throws the failed attempt's rows away,
// so a replay cannot duplicate them. Writes are never retried: a
// blindly replayed non-idempotent statement could apply twice.
func WithRetry(r resilience.Retry) DialOption {
	return func(c *Client) { c.retry = &r }
}

// Dial creates a client for a server base URL ("http://host:port").
// token may be empty for unauthenticated servers.
func Dial(base, token string, opts ...DialOption) *Client {
	c := &Client{
		base:  base,
		token: token,
		http:  &http.Client{Timeout: DefaultTimeout},
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// statusError carries a non-200 response through the error chain so the
// retry policy can distinguish server faults (5xx) from caller errors.
type statusError struct {
	method, path string
	code         int
	msg          string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("remote: %s %s: %s", e.method, e.path, e.msg)
	}
	return fmt.Sprintf("remote: %s %s: status %d", e.method, e.path, e.code)
}

// retryableError classifies one failed attempt: 5xx and transport-level
// failures are transient; 4xx, context expiry, and overload sheds are
// permanent. A shed is never blind-retried — the server just said it
// is at capacity, and an immediate retry is the start of a retry storm;
// honoring the Retry-After hint is the caller's (scheduler's) job.
func retryableError(err error) bool {
	if errors.Is(err, admission.ErrOverloaded) || errors.Is(err, errFetchTooLarge) || errors.Is(err, errNotFrames) {
		return false
	}
	var se *statusError
	if errors.As(err, &se) {
		return se.code >= 500
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// shedError converts a 429 response into the same typed overload error
// a local admission gate produces, so errors.Is(err, ErrOverloaded)
// holds whether the shed happened in-process or across the wire.
// Retry-After is parsed as delta-seconds; absent or malformed, a
// conservative default stands in. The server's shed reason rides
// ShedReasonHeader, prefixed "remote-" to keep origins distinguishable.
func shedError(ctx context.Context, method, path string, h http.Header) error {
	ra := 250 * time.Millisecond
	if v := h.Get("Retry-After"); v != "" {
		if secs, err := strconv.ParseFloat(v, 64); err == nil && secs >= 0 && secs <= 3600 {
			ra = time.Duration(secs * float64(time.Second))
		}
	}
	reason := h.Get(ShedReasonHeader)
	if reason == "" {
		reason = "unknown"
	}
	oe := &admission.OverloadError{
		Tenant:     admission.TenantOf(ctx),
		Reason:     "remote-" + reason,
		RetryAfter: ra,
	}
	return fmt.Errorf("remote: %s %s: %w", method, path, oe)
}

// withRetry runs one idempotent read under the client's retry policy,
// or once when no policy is installed.
func (c *Client) withRetry(ctx context.Context, op func(context.Context) error) error {
	if c.retry == nil {
		return op(ctx)
	}
	r := *c.retry
	prev := r.OnRetry
	r.OnRetry = func(attempt int, err error, delay time.Duration) {
		metClientRetries.Inc()
		if prev != nil {
			prev(attempt, err, delay)
		}
	}
	return r.Run(ctx, op, retryableError)
}

// do performs one client call. idempotent calls run under the client's
// retry policy (when one is installed); non-idempotent calls get
// exactly one attempt regardless.
func (c *Client) do(ctx context.Context, method, path string, body []byte, idempotent bool) ([]byte, error) {
	if !idempotent {
		return c.doOnce(ctx, method, path, body)
	}
	var out []byte
	err := c.withRetry(ctx, func(ctx context.Context) error {
		var opErr error
		out, opErr = c.doOnce(ctx, method, path, body)
		return opErr
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// doOnce is a single client call attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte) ([]byte, error) {
	start := time.Now()
	defer func() { metClientSeconds.Observe(time.Since(start)) }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		metClientReqs("error").Inc()
		return nil, fmt.Errorf("remote: request: %w", err)
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace so the server's spans join our tree,
	// and the tenant so the server's admission gate bills the right
	// account.
	obs.InjectHeaders(ctx, req.Header)
	req.Header.Set(TenantHeader, admission.TenantOf(ctx))
	resp, err := c.http.Do(req)
	if err != nil {
		metClientReqs("error").Inc()
		return nil, fmt.Errorf("remote: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	metClientReqs(respClass(resp.StatusCode)).Inc()
	out, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, fmt.Errorf("remote: reading %s: %w", path, err)
	}
	metClientBytes.Add(int64(len(out)))
	if resp.StatusCode == http.StatusTooManyRequests {
		return nil, shedError(ctx, method, path, resp.Header)
	}
	if resp.StatusCode != http.StatusOK {
		se := &statusError{method: method, path: path, code: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(out, &er) == nil && er.Error != "" {
			se.msg = er.Error
		}
		return nil, se
	}
	return out, nil
}

// statusClass folds an HTTP status into its hundreds class ("2xx"…).
func statusClass(code int) string {
	if code < 100 || code > 599 {
		return "other"
	}
	return strconv.Itoa(code/100) + "xx"
}

// respClass is statusClass with sheds broken out: 429s get their own
// "shed" class in the request counters so overload is visible at a
// glance instead of hiding inside 4xx.
func respClass(code int) string {
	if code == http.StatusTooManyRequests {
		return "shed"
	}
	return statusClass(code)
}

// Tables discovers the remote schemas as ready-to-register sources.
func (c *Client) Tables(ctx context.Context) ([]wrapper.Source, error) {
	body, err := c.do(ctx, http.MethodGet, "/tables", nil, true)
	if err != nil {
		return nil, err
	}
	var schemas []wireSchema
	if err := json.Unmarshal(body, &schemas); err != nil {
		return nil, fmt.Errorf("remote: decoding /tables: %w", err)
	}
	var out []wrapper.Source
	for _, ws := range schemas {
		def, err := decodeSchema(ws)
		if err != nil {
			return nil, err
		}
		out = append(out, &Source{
			client: c, def: def,
			caps: wrapper.Capabilities{
				PushdownEq: ws.PushdownEq,
				Push:       plan.FullPushCaps(),
				Volatile:   ws.Volatile,
			},
		})
	}
	return out, nil
}

// Healthy probes /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	_, err := c.do(ctx, http.MethodGet, "/healthz", nil, true)
	return err == nil
}

// Digest fetches the content digest of a stored table published on
// the server — the remote half of anti-entropy divergence detection.
// Read-only, so it rides the idempotent retry policy.
func (c *Client) Digest(ctx context.Context, table string) (storage.TableDigest, error) {
	body, err := json.Marshal(digestRequest{Table: table})
	if err != nil {
		return storage.TableDigest{}, err
	}
	out, err := c.do(ctx, http.MethodPost, "/digest", body, true)
	if err != nil {
		return storage.TableDigest{}, err
	}
	var resp digestResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return storage.TableDigest{}, fmt.Errorf("remote: decoding /digest: %w", err)
	}
	h, err := strconv.ParseUint(resp.Hash, 16, 64)
	if err != nil {
		return storage.TableDigest{}, fmt.Errorf("remote: /digest hash %q: %w", resp.Hash, err)
	}
	return storage.TableDigest{Hash: h, Rows: resp.Rows}, nil
}

// Source is a remote table presented through the standard connector
// interface: the federation treats an enterprise across the network
// exactly like a local wrapper (Characteristic 1's arms-length end, with
// structure instead of scraping).
type Source struct {
	client *Client
	def    *schema.Table
	caps   wrapper.Capabilities
}

// Name implements wrapper.Source.
func (s *Source) Name() string { return s.client.base + "/" + s.def.Name }

// Schema implements wrapper.Source.
func (s *Source) Schema() *schema.Table { return s.def }

// Capabilities implements wrapper.Source.
func (s *Source) Capabilities() wrapper.Capabilities { return s.caps }

// maxFetchBytes caps the response body one Fetch reads: Fetch holds
// every row in memory, unlike a stream.
const maxFetchBytes = 64 << 20

// errFetchTooLarge fails a Fetch whose body passed maxFetchBytes.
var errFetchTooLarge = errors.New("remote: fetch body too large")

// Fetch implements wrapper.Source: the /fetchstream push stream with
// nothing pushed but the filters, which the server applies, drained.
// The drain runs under the
// client's retry policy and whole-call timeout, and fails once it has
// read maxFetchBytes.
func (s *Source) Fetch(ctx context.Context, filters []wrapper.Filter) ([]storage.Row, error) {
	if d := s.client.http.Timeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	var rows []storage.Row
	err := s.client.withRetry(ctx, func(ctx context.Context) error {
		st, _, err := s.fetchPushStream(ctx, filters, wrapper.Pushdown{}, maxFetchBytes)
		if err != nil {
			return err
		}
		rows, err = storage.CollectRows(st)
		if err != nil && ctx.Err() != nil && !errors.Is(err, ctx.Err()) {
			// A deadline that cuts the body reads as truncation; keep
			// the cause in the chain.
			err = fmt.Errorf("%w: %w", ctx.Err(), err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}
