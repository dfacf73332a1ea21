package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"cohera/internal/admission"
	"cohera/internal/obs"
	"cohera/internal/plan"
	"cohera/internal/schema"
	"cohera/internal/sqlparse"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/wrapper"
)

// POST /fetchstream answers with frames (frame.go): row chunks, then
// the {"eof":true} terminator. The terminator is load-bearing: a
// connection that dies mid-transfer ends the body without it, and the
// client reports ErrTruncated instead of passing off a prefix as the
// full result.

// ErrTruncated reports a stream body that ended before the EOF
// terminator — the transport died mid-transfer. Consumers must treat
// the rows received so far as incomplete.
var ErrTruncated = errors.New("remote: stream truncated before eof terminator")

// maxStreamBatchRows caps the server's configured batch size so one
// chunk never buffers unbounded rows.
const maxStreamBatchRows = 8192

// streamRequest is the body of POST /fetchstream: one pushed request,
// which the server always completes. The rows it answers with are the
// rows Filters and Where keep, Cols wide (the whole schema when Cols is
// empty), or Group's partial rows.
type streamRequest struct {
	Table string `json:"table"`
	// Filters are further conjuncts of Where (wrapper.Filter), carried
	// as exact values: a literal's SQL text does not round-trip every
	// kind.
	Filters []wireFilter `json:"filters,omitempty"`
	// Where is a pushed predicate in SQL text form (bare column refs);
	// the server parses and applies it before encoding rows.
	Where string `json:"where,omitempty"`
	// Cols asks for a column subset, in order.
	Cols []string `json:"cols,omitempty"`
	// Limit caps delivered rows; <= 0 means no limit.
	Limit int `json:"limit,omitempty"`
	// Group asks for the rows Where keeps folded into partial rows of
	// this grouping. It excludes Cols and Limit.
	Group *wireGrouping `json:"group,omitempty"`
}

// streamChunk is the JSON of a /fetchstream M frame: a mid-stream
// error or the terminator. Members it does not name are skipped, so an
// M frame that is neither (the leading pushdown ack of earlier
// releases) carries nothing and is passed over.
type streamChunk struct {
	Error string `json:"error,omitempty"`
	// Eval marks Error as a fault of the query's evaluation
	// (plan.ErrEval), not of the serving source: the client reports it
	// as such, and the coordinator does not fail over on it.
	Eval bool `json:"eval,omitempty"`
	EOF  bool `json:"eof,omitempty"`
}

// metStreamBatches counts row chunks by side ("server" encodes,
// "client" decodes).
func metStreamBatches(side string) *obs.Counter {
	return obs.Default().Counter("cohera_stream_batches_total",
		"Row-batch chunks moved through the streaming wire protocol.",
		obs.Labels{"side": side})
}

// metStreamBytes counts frame bytes, headers included, by side.
func metStreamBytes(side string) *obs.Counter {
	return obs.Default().Counter("cohera_stream_bytes_total",
		"Payload bytes moved through the streaming wire protocol.",
		obs.Labels{"side": side})
}

// metStreamInflight gauges streams currently open, by side.
func metStreamInflight(side string) *obs.Gauge {
	return obs.Default().Gauge("cohera_stream_inflight",
		"Row streams currently open.", obs.Labels{"side": side})
}

// batchRowBuckets are row counts disguised as durations: the obs
// histogram observes time.Duration, so the peak-batch histogram encodes
// N rows as time.Duration(N). Quantiles read back as row counts.
var batchRowBuckets = []time.Duration{1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

var metStreamPeakBatch = obs.Default().HistogramBuckets("cohera_stream_peak_batch_rows",
	"Peak rows observed in a single chunk per stream (unit: rows, not seconds).",
	batchRowBuckets, nil)

// clampBatchRows resolves the effective rows-per-chunk from the
// server's configured size.
func clampBatchRows(n int) int {
	if n <= 0 {
		n = storage.DefaultBatchRows
	}
	if n > maxStreamBatchRows {
		n = maxStreamBatchRows
	}
	return n
}

// countingWriter tallies bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// handleFetchStream streams a source's rows as frames. Each row
// chunk is flushed as soon as it is full, so a slow consumer exerts
// backpressure on the producing scan through the socket's window
// instead of forcing the server to buffer the whole result.
func (s *Server) handleFetchStream(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
		return
	}
	var req streamRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, `{"error":"bad json"}`, http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	src, ok := s.sources[strings.ToLower(req.Table)]
	s.mu.RUnlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("no table %q", req.Table)})
		return
	}
	var filters []wrapper.Filter
	for _, wf := range req.Filters {
		v, err := decodeValue(wf.Value)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
			_ = writeJSON(w, errorResponse{Error: err.Error()})
			return
		}
		filters = append(filters, wrapper.Filter{Column: wf.Column, Value: v})
	}
	// The filters join the pushed WHERE as conjuncts, and
	// wrapper.OpenPushStream completes the whole request, evaluating
	// whatever the source cannot right here: rows failing the pushed
	// WHERE are never encoded.
	var push wrapper.Pushdown
	if req.Where != "" {
		expr, perr := sqlparse.ParseExpr(req.Where)
		if perr != nil {
			w.WriteHeader(http.StatusBadRequest)
			//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
			_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("bad pushdown where: %v", perr)})
			return
		}
		push.Where = expr
	}
	push.Where = wrapper.AndFilters(src.Schema(), push.Where, filters)
	if len(req.Cols) > 0 {
		push.Cols = req.Cols
	}
	if req.Limit > 0 {
		push.Limit = req.Limit
	}
	g, gerr := decodeGrouping(req.Group)
	if gerr == nil && g != nil && (push.Cols != nil || push.Limit > 0) {
		gerr = fmt.Errorf("a grouped request carries no cols or limit")
	}
	if gerr != nil {
		w.WriteHeader(http.StatusBadRequest)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: fmt.Sprintf("bad pushdown group: %v", gerr)})
		return
	}
	push.Group = g
	st, err := wrapper.OpenPushStream(r.Context(), src, push)
	if err != nil {
		// A projection or grouping the rows cannot answer is the
		// request's fault; anything else is the source's.
		code := http.StatusInternalServerError
		if errors.Is(err, plan.ErrEval) {
			code = http.StatusBadRequest
		}
		w.WriteHeader(code)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: err.Error()})
		return
	}
	batchRows := clampBatchRows(s.StreamBatchRows)
	metStreamInflight("server").Add(1)
	defer metStreamInflight("server").Add(-1)

	// The encode stage lives on this process's span tree only — the
	// coordinator is across a process boundary, so the serving side's
	// operator profile travels through the propagated trace, not the
	// coordinator's stage collector.
	_, sp := obs.StartSpan(r.Context(), "remote.streamencode")
	sp.Set("table", req.Table)
	encStage := obs.NewStage("remote.encode", req.Table)
	// Closing the wrapper closes st; the defer covers every exit below.
	scan := storage.InstrumentStream(st, encStage, storage.TimingSample)
	defer scan.Close()

	w.Header().Set("Content-Type", framesContentType)
	cw := &countingWriter{w: w}
	defer func() { metStreamBytes("server").Add(cw.n) }()
	flusher, _ := w.(http.Flusher)
	writeMeta := func(c streamChunk) error {
		frame, err := metaFrame(c)
		if err == nil {
			_, err = cw.Write(frame)
		}
		if flusher != nil {
			flusher.Flush()
		}
		return err
	}
	peak := 0
	defer func() {
		encStage.NotePeak(int64(peak))
		encStage.Done()
		sp.SetStage(encStage)
		sp.End()
	}()

	// Rows are encoded as they arrive into one reused buffer, behind
	// the room its frame header takes; a full chunk goes out in one
	// write and one flush.
	buf := make([]byte, frameHeaderRoom)
	n := 0 // rows in buf
	var sentBytes int64
	emit := func() bool {
		if n == 0 {
			return true
		}
		if n > peak {
			peak = n
		}
		if _, err := cw.Write(sealFrame(buf, frameRows)); err != nil {
			return false // consumer went away; stop producing
		}
		metStreamBatches("server").Inc()
		encStage.AddBatch(0, cw.n-sentBytes)
		sentBytes = cw.n
		buf, n = buf[:frameHeaderRoom], 0
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	for {
		row, err := scan.Next()
		if err == io.EOF {
			if !emit() {
				return
			}
			//lint:ignore errdrop the stream is already committed as 200; a failed terminator reads as truncation on the client
			_ = writeMeta(streamChunk{EOF: true})
			metStreamPeakBatch.Observe(time.Duration(peak))
			return
		}
		if err != nil {
			// Buffered rows are dropped: an error frame tells the client
			// the result is broken, so a partial flush would only move
			// rows it must discard.
			//lint:ignore errdrop the stream is already committed as 200; the error frame is best-effort
			_ = writeMeta(streamChunk{Error: err.Error(), Eval: errors.Is(err, plan.ErrEval)})
			return
		}
		buf = value.AppendRow(buf, row)
		n++
		if n >= batchRows && !emit() {
			return
		}
	}
}

// FetchPushStream implements wrapper.PushStreamingSource over POST
// /fetchstream: the filters and the pushed σ/π/limit/γ travel as
// request fields, and the server completes all of them, so the receipt
// is exactly the request. The returned stream holds the response body
// open and decodes chunks on demand, so client-side memory is one chunk
// regardless of result size. Rows are decoded as wide as the request
// asks (the projection, the grouping's partial layout, or the schema);
// a peer whose rows are any other width fails the stream. Streams are
// never retried — a replayed stream could double rows already consumed;
// failover belongs to the federation layer, which can dedupe by primary
// key.
func (s *Source) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	return s.fetchPushStream(ctx, filters, push, 0)
}

// fetchPushStream opens the stream; past maxBytes of body (when > 0)
// it fails with errFetchTooLarge.
func (s *Source) fetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown, maxBytes int64) (storage.RowStream, wrapper.Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "remote.fetchstream")
	sp.Set("table", s.def.Name)
	req := streamRequest{Table: s.def.Name, Cols: push.Cols, Group: encodeGrouping(push.Group)}
	for _, f := range filters {
		req.Filters = append(req.Filters, wireFilter{Column: f.Column, Value: encodeValue(f.Value)})
	}
	if push.Where != nil {
		req.Where = push.Where.String()
	}
	if push.Limit > 0 {
		req.Limit = push.Limit
	}
	body, err := json.Marshal(req)
	if err != nil {
		sp.SetErr(err)
		sp.End()
		return nil, wrapper.Applied{}, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, s.client.base+"/fetchstream", bytes.NewReader(body))
	if err != nil {
		sp.SetErr(err)
		sp.End()
		metClientReqs("error").Inc()
		return nil, wrapper.Applied{}, fmt.Errorf("remote: request: %w", err)
	}
	if s.client.token != "" {
		httpReq.Header.Set("Authorization", "Bearer "+s.client.token)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	obs.InjectHeaders(ctx, httpReq.Header)
	httpReq.Header.Set(TenantHeader, admission.TenantOf(ctx))
	// The client's whole-call timeout would kill a long-lived stream
	// body mid-read, so streams go through a timeout-free client that
	// shares the transport (and any injected faults). Cancellation
	// stays with ctx.
	streamHTTP := &http.Client{Transport: s.client.http.Transport}
	resp, err := streamHTTP.Do(httpReq)
	if err != nil {
		sp.SetErr(err)
		sp.End()
		metClientReqs("error").Inc()
		return nil, wrapper.Applied{}, fmt.Errorf("remote: POST /fetchstream: %w", err)
	}
	metClientReqs(respClass(resp.StatusCode)).Inc()
	if resp.StatusCode != http.StatusOK {
		//lint:ignore errdrop the body is best-effort context for the status error
		out, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		//lint:ignore errdrop the response is already a failure; close is best-effort cleanup
		_ = resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			err := shedError(ctx, http.MethodPost, "/fetchstream", resp.Header)
			sp.SetErr(err)
			sp.End()
			return nil, wrapper.Applied{}, err
		}
		se := &statusError{method: http.MethodPost, path: "/fetchstream", code: resp.StatusCode}
		var er errorResponse
		if json.Unmarshal(out, &er) == nil && er.Error != "" {
			se.msg = er.Error
		}
		sp.SetErr(se)
		sp.End()
		return nil, wrapper.Applied{}, se
	}
	// A peer that answers in another format (an NDJSON release) is
	// refused here, so the caller fails over instead of misreading it.
	if ct := resp.Header.Get("Content-Type"); ct != framesContentType {
		//lint:ignore errdrop the open is failing; close is best-effort cleanup
		_ = resp.Body.Close()
		err := fmt.Errorf("%w: Content-Type %q, want %q", errNotFrames, ct, framesContentType)
		sp.SetErr(err)
		sp.End()
		return nil, wrapper.Applied{}, err
	}
	cols := s.def.ColumnNames()
	switch {
	case push.Group != nil:
		cols = push.Group.Columns()
	case len(push.Cols) > 0:
		cols = slices.Clone(push.Cols)
	}
	metStreamInflight("client").Add(1)
	// The decode stage is a leaf under the wrapper.fetch stage: rows and
	// bytes are counted per chunk as they come off the wire.
	_, stage := obs.StartStage(ctx, "remote.decode", s.def.Name)
	cs := &clientStream{
		def:      s.def,
		cols:     cols,
		body:     resp.Body,
		br:       bufio.NewReaderSize(resp.Body, 64<<10),
		sp:       sp,
		stage:    stage,
		maxBytes: maxBytes,
	}
	applied := wrapper.Applied{Where: push.Where != nil, Cols: len(push.Cols) > 0, Limit: push.Limit > 0, Group: push.Group != nil}
	return cs, applied, nil
}

// clientStream decodes frames from an open /fetchstream response into
// rows, one chunk in memory at a time.
type clientStream struct {
	def     *schema.Table
	cols    []string
	body    io.ReadCloser
	br      *bufio.Reader
	sp      *obs.Span
	stage   *obs.StageStats
	payload []byte     // the current frame's payload, reused
	dec     rowDecoder // rows are decoded len(cols) wide

	// read counts body bytes so far; past maxBytes (when > 0) the
	// stream fails with errFetchTooLarge.
	read, maxBytes int64

	pending []storage.Row
	pos     int
	peak    int
	err     error // sticky terminal error (io.EOF for clean end)
	closed  bool
}

// Columns implements storage.RowStream.
func (c *clientStream) Columns() []string { return c.cols }

// chunk is one decoded frame: rows of an R frame, or an M frame's meta.
type chunk struct {
	rows []storage.Row
	meta streamChunk
	size int // frame length, for byte accounting
}

// readChunk reads and decodes the next frame. ok=false means a terminal
// condition was recorded in c.err: truncation, a frame past its cap or
// the byte budget, corruption, or a row of the wrong width.
func (c *clientStream) readChunk() (ch chunk, ok bool) {
	// Time the frame fetch+decode exactly: chunks are coarse enough
	// (hundreds of rows) that two clock reads per chunk are free, and
	// the wait on the body is precisely this stage's blocked-upstream
	// (network/server) time.
	chunkStart := time.Now()
	kind, size, hdr, err := readFrameHeader(c.br)
	if err != nil {
		c.err = err
		return ch, false
	}
	// Both caps are checked before anything is allocated.
	if size > maxStreamFrame {
		c.err = fmt.Errorf("remote: stream frame of %d bytes past the %d-byte cap", size, maxStreamFrame)
		return ch, false
	}
	c.read += int64(hdr) + int64(size)
	if c.maxBytes > 0 && c.read > c.maxBytes {
		c.err = fmt.Errorf("%w: %s past %d bytes", errFetchTooLarge, c.def.Name, c.maxBytes)
		return ch, false
	}
	c.payload = slices.Grow(c.payload[:0], int(size))[:size]
	if _, err := io.ReadFull(c.br, c.payload); err != nil {
		c.err = truncation(err)
		return ch, false
	}
	switch kind {
	case frameRows:
		ch.rows, err = c.dec.decode(c.payload, len(c.cols))
	case frameMeta:
		if jerr := json.Unmarshal(c.payload, &ch.meta); jerr != nil {
			err = corruptFrame(kind, jerr)
		}
	default:
		err = fmt.Errorf("remote: unknown stream frame kind %q", kind)
	}
	if err != nil {
		c.err = err
		return ch, false
	}
	ch.size = hdr + int(size)
	metStreamBytes("client").Add(int64(ch.size))
	c.stage.BlockedUpstream(time.Since(chunkStart))
	return ch, true
}

// Next implements storage.RowStream.
func (c *clientStream) Next() (storage.Row, error) {
	if c.closed {
		return nil, storage.ErrStreamClosed
	}
	for {
		if c.pos < len(c.pending) {
			r := c.pending[c.pos]
			c.pos++
			return r, nil
		}
		if c.err != nil {
			return nil, c.err
		}
		ch, ok := c.readChunk()
		if !ok {
			return nil, c.err
		}
		if ch.meta.Error != "" {
			c.err = fmt.Errorf("remote: stream failed at server: %s", ch.meta.Error)
			if ch.meta.Eval {
				c.err = plan.MarkEval(c.err)
			}
			return nil, c.err
		}
		if ch.meta.EOF {
			c.err = io.EOF
			return nil, c.err
		}
		if ch.rows == nil {
			// An M frame that is neither an error nor the terminator
			// (an earlier release's leading pushdown ack), or an empty
			// chunk, carries no rows; skip it.
			continue
		}
		rows := ch.rows
		metStreamBatches("client").Inc()
		c.stage.AddBatch(int64(len(rows)), int64(ch.size))
		c.stage.NotePeak(int64(len(rows)))
		if len(rows) > c.peak {
			c.peak = len(rows)
		}
		c.pending, c.pos = rows, 0
	}
}

// Close implements storage.RowStream. Idempotent; settles the stream's
// span and peak-batch observation.
func (c *clientStream) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	metStreamInflight("client").Add(-1)
	metStreamPeakBatch.Observe(time.Duration(c.peak))
	c.sp.Set("peak_batch_rows", strconv.Itoa(c.peak))
	if c.err != nil && c.err != io.EOF {
		c.sp.SetErr(c.err)
		c.stage.Fail(c.err)
	}
	c.stage.Done()
	c.sp.SetStage(c.stage)
	c.sp.End()
	return c.body.Close()
}
