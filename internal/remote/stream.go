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
	"cohera/internal/wrapper"
)

// streamProjection maps requested column names onto a stream's column
// order, case-insensitively.
func streamProjection(have, want []string) ([]int, error) {
	idx := make([]int, len(want))
	for i, w := range want {
		idx[i] = -1
		for j, h := range have {
			if strings.EqualFold(h, w) {
				idx[i] = j
				break
			}
		}
		if idx[i] < 0 {
			return nil, fmt.Errorf("remote: pushed projection column %q not in stream", w)
		}
	}
	return idx, nil
}

// The chunked-transfer wire format: POST /fetchstream answers with
// newline-delimited JSON (NDJSON). Each line is one streamChunk — a
// batch of rows, a mid-stream error, or the {"eof":true} terminator.
// The terminator is load-bearing: a connection that dies mid-transfer
// ends the body without it, and the client reports ErrTruncated instead
// of passing off a prefix as the full result.

// ErrTruncated reports a stream body that ended before the EOF
// terminator — the transport died mid-transfer. Consumers must treat
// the rows received so far as incomplete.
var ErrTruncated = errors.New("remote: stream truncated before eof terminator")

// maxStreamLine bounds one NDJSON line on the client. A line carries at
// most maxStreamBatchRows encoded rows.
const maxStreamLine = 64 << 20

// maxStreamBatchRows caps the negotiated batch size so a hostile client
// cannot make the server buffer unbounded rows per chunk.
const maxStreamBatchRows = 8192

// streamRequest is the body of POST /fetchstream. The pushdown fields
// (where/cols/limit) are ignored by servers that predate them — JSON
// decoding drops unknown fields — and the missing first-chunk ack tells
// the client nothing was applied.
type streamRequest struct {
	Table   string       `json:"table"`
	Filters []wireFilter `json:"filters,omitempty"`
	// BatchRows asks the server for a specific rows-per-chunk; 0 lets
	// the server choose.
	BatchRows int `json:"batch_rows,omitempty"`
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

// streamChunk is every member of a /fetchstream NDJSON line except its
// rows, which the row codec (rowcodec.go) writes and reads by hand. A
// line carries rows, a pushdown ack, a mid-stream error, or the
// terminator; old clients see an ack line as zero rows and skip it.
type streamChunk struct {
	Pushed *wirePushedAck `json:"pushed,omitempty"`
	Error  string         `json:"error,omitempty"`
	EOF    bool           `json:"eof,omitempty"`
}

// metStreamBatches counts NDJSON chunks by side ("server" encodes,
// "client" decodes).
func metStreamBatches(side string) *obs.Counter {
	return obs.Default().Counter("cohera_stream_batches_total",
		"Row-batch chunks moved through the streaming wire protocol.",
		obs.Labels{"side": side})
}

// metStreamBytes counts NDJSON payload bytes by side.
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
// client's ask and the server's default.
func clampBatchRows(asked, serverDefault int) int {
	n := asked
	if n <= 0 {
		n = serverDefault
	}
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

// handleFetchStream streams a source's rows as NDJSON chunks. Each
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
	// Capability-aware pushdown: parse the request's σ/π/limit, hand it
	// to the source, and fuse whatever the source could not apply right
	// here — rows failing the pushed WHERE are never encoded. With
	// DisablePushdown set the fields are ignored and no ack is sent,
	// reproducing an old server for fallback tests.
	var push wrapper.Pushdown
	if !s.DisablePushdown {
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
	}
	st, applied, err := wrapper.OpenPushStream(r.Context(), src, filters, push)
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
		_ = writeJSON(w, errorResponse{Error: err.Error()})
		return
	}
	var ack *wirePushedAck
	if !push.Empty() {
		spec := plan.FuseSpec{Limit: -1}
		fuse := false
		if push.Where != nil && !applied.Where {
			spec.Where = push.Where
			fuse = true
		}
		if push.Cols != nil && !applied.Cols {
			idx, ierr := streamProjection(st.Columns(), push.Cols)
			if ierr != nil {
				//lint:ignore errdrop the request is being rejected; close is best-effort cleanup
				_ = st.Close()
				w.WriteHeader(http.StatusBadRequest)
				//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
				_ = writeJSON(w, errorResponse{Error: ierr.Error()})
				return
			}
			spec.Project = idx
			fuse = true
		}
		if push.Limit > 0 && !applied.Limit {
			spec.Limit = push.Limit
			fuse = true
		}
		if fuse {
			st = plan.FuseStream(st, spec)
		}
		if push.Group != nil && !applied.Group {
			//lint:ignore streamclose fold aliases st, which the deferred scan close releases
			fold, ferr := plan.NewFoldStream(st, push.Group)
			if ferr != nil {
				//lint:ignore errdrop the request is being rejected; close is best-effort cleanup
				_ = st.Close()
				w.WriteHeader(http.StatusBadRequest)
				//lint:ignore errdrop the status line is already committed; nothing useful can be done with an encode failure
				_ = writeJSON(w, errorResponse{Error: ferr.Error()})
				return
			}
			st = fold
		}
		ack = &wirePushedAck{Where: push.Where != nil, Cols: push.Cols, Limit: push.Limit > 0,
			Group: encodeGrouping(push.Group)}
	}
	batchRows := clampBatchRows(req.BatchRows, s.StreamBatchRows)
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

	w.Header().Set("Content-Type", "application/x-ndjson")
	cw := &countingWriter{w: w}
	defer func() { metStreamBytes("server").Add(cw.n) }()
	enc := json.NewEncoder(cw)
	flusher, _ := w.(http.Flusher)
	// The ack must be the first line: the client reads it synchronously
	// to learn what was applied before it sees any rows.
	if ack != nil {
		if err := enc.Encode(streamChunk{Pushed: ack}); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	peak := 0
	defer func() {
		encStage.NotePeak(int64(peak))
		encStage.Done()
		sp.SetStage(encStage)
		sp.End()
	}()

	// Rows are encoded as they arrive into one reused buffer; a full
	// chunk goes out in one write, the same bytes and the same write
	// boundaries as encoding/json's Encoder.
	var line []byte
	n := 0 // rows in line
	var sentBytes int64
	emit := func() bool {
		if n == 0 {
			return true
		}
		if n > peak {
			peak = n
		}
		line = append(line, rowsClose+"\n"...)
		if _, err := cw.Write(line); err != nil {
			return false // consumer went away; stop producing
		}
		metStreamBatches("server").Inc()
		encStage.AddBatch(0, cw.n-sentBytes)
		sentBytes = cw.n
		line, n = line[:0], 0
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
			_ = enc.Encode(streamChunk{EOF: true})
			metStreamPeakBatch.Observe(time.Duration(peak))
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if err != nil {
			// Buffered rows are dropped: an error chunk tells the client
			// the result is broken, so a partial flush would only move
			// rows it must discard.
			//lint:ignore errdrop the stream is already committed as 200; the error chunk is best-effort
			_ = enc.Encode(streamChunk{Error: err.Error()})
			return
		}
		if n == 0 {
			line = append(line, rowsOpen...)
		} else {
			line = append(line, ',')
		}
		line = appendRow(line, row)
		n++
		if n >= batchRows && !emit() {
			return
		}
	}
}

// FetchPushStream implements wrapper.PushStreamingSource over POST
// /fetchstream: the pushed σ/π/limit travel as request fields. The
// returned stream holds the response body open and decodes chunks on
// demand, so client-side memory is one chunk regardless of result size.
// The first response chunk is the server's ack; a server too old to
// know the fields sends none, the receipt comes back all-false, and the
// caller re-evaluates locally — full-width unfiltered rows, exactly the
// pre-push behavior. Streams are never retried — a replayed stream
// could double rows already consumed; failover belongs to the
// federation layer, which can dedupe by primary key.
func (s *Source) FetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown) (storage.RowStream, wrapper.Applied, error) {
	return s.fetchPushStream(ctx, filters, push, 0)
}

// fetchPushStream opens the stream; past maxBytes of body (when > 0)
// it fails with errFetchTooLarge.
func (s *Source) fetchPushStream(ctx context.Context, filters []wrapper.Filter, push wrapper.Pushdown, maxBytes int64) (storage.RowStream, wrapper.Applied, error) {
	ctx, sp := obs.StartSpan(ctx, "remote.fetchstream")
	sp.Set("table", s.def.Name)
	req := streamRequest{Table: s.def.Name, BatchRows: s.client.streamBatch}
	if push.Where != nil {
		req.Where = push.Where.String()
	}
	req.Cols = push.Cols
	if push.Limit > 0 {
		req.Limit = push.Limit
	}
	var local []wrapper.Filter
	allPushed := true
	for _, f := range filters {
		if s.caps.CanPush(f.Column) {
			req.Filters = append(req.Filters, wireFilter{Column: f.Column, Value: encodeValue(f.Value)})
		} else {
			allPushed = false
		}
		local = append(local, f)
	}
	// Partial rows cannot be re-filtered here, so a grouping travels
	// only with every filter; otherwise rows come back whole and the
	// caller folds them.
	if push.Group != nil && allPushed {
		req.Group = encodeGrouping(push.Group)
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
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), maxStreamLine)
	metStreamInflight("client").Add(1)
	// The decode stage is a leaf under the wrapper.fetch stage: rows and
	// bytes are counted per chunk as they come off the wire, before the
	// local filter re-check drops anything.
	_, stage := obs.StartStage(ctx, "remote.decode", s.def.Name)
	cs := &clientStream{
		def:      s.def,
		cols:     s.def.ColumnNames(),
		filters:  local,
		body:     resp.Body,
		sc:       sc,
		sp:       sp,
		stage:    stage,
		maxBytes: maxBytes,
	}
	cs.rebindFilters()
	var applied wrapper.Applied
	if !push.Empty() {
		// Read the first line now: a push-aware server leads with its
		// ack, an old server leads with rows (stashed for Next). Either
		// way the receipt is known before the caller sees the stream.
		if ack := cs.awaitAck(); ack != nil {
			// A projection ack must name exactly the columns asked for,
			// in order: rows shaped by any other list would be read
			// against the wrong layout downstream.
			var err error
			if len(ack.Cols) > 0 && !slices.EqualFunc(ack.Cols, push.Cols, strings.EqualFold) {
				err = fmt.Errorf("remote: %s acked projection %v, asked for %v", s.def.Name, ack.Cols, push.Cols)
			}
			// A grouping ack must echo the grouping sent, exactly: the
			// partial layout follows from it.
			var acked *plan.Grouping
			if err == nil && ack.Group != nil {
				if acked, err = decodeGrouping(ack.Group); err == nil && (req.Group == nil || !acked.Equal(push.Group)) {
					err = fmt.Errorf("remote: %s acked grouping %+v, asked for %+v", s.def.Name, ack.Group, req.Group)
				}
			}
			if err != nil {
				cs.err = err
				//lint:ignore errdrop the open is failing; close is best-effort cleanup
				_ = cs.Close()
				return nil, wrapper.Applied{}, err
			}
			applied = wrapper.Applied{
				Where: ack.Where && push.Where != nil,
				Cols:  len(ack.Cols) > 0,
				Limit: ack.Limit && push.Limit > 0,
				Group: acked != nil,
			}
			switch {
			case applied.Group:
				// Rows arrive as partial rows; the filter re-check sees
				// only the group columns.
				cs.cols = push.Group.Columns()
				cs.rebindFilters()
			case applied.Cols:
				// Rows arrive projected: narrow the stream's column set
				// and re-resolve the filter re-check against it.
				cs.cols = append([]string(nil), ack.Cols...)
				cs.rebindFilters()
			}
		}
	}
	return cs, applied, nil
}

// clientStream decodes NDJSON chunks from an open /fetchstream response
// into rows, one chunk in memory at a time.
type clientStream struct {
	def     *schema.Table
	cols    []string
	filters []wrapper.Filter
	// filterIdx maps filters onto the (possibly projected) row layout;
	// -1 skips a filter whose column the rows no longer carry.
	filterIdx []int
	body      io.ReadCloser
	sc        *bufio.Scanner
	sp        *obs.Span
	stage     *obs.StageStats
	dec       rowDecoder // rows are decoded len(cols) wide

	// read counts body bytes scanned so far, blank lines included;
	// past maxBytes (when > 0) the stream fails with errFetchTooLarge.
	read, maxBytes int64

	// stash holds a chunk read ahead of its turn (the ack probe hit
	// rows on an old server).
	stash *chunk

	pending []storage.Row
	pos     int
	peak    int
	err     error // sticky terminal error (io.EOF for clean end)
	closed  bool
}

// Columns implements storage.RowStream.
func (c *clientStream) Columns() []string { return c.cols }

// rebindFilters resolves the equality-filter columns against the
// current row layout. Called again when an ack narrows the columns.
func (c *clientStream) rebindFilters() {
	c.filterIdx = make([]int, len(c.filters))
	for i, f := range c.filters {
		c.filterIdx[i] = -1
		for j, col := range c.cols {
			if strings.EqualFold(col, f.Column) {
				c.filterIdx[i] = j
				break
			}
		}
	}
}

// chunk is one decoded NDJSON line.
type chunk struct {
	rows []storage.Row
	meta streamChunk
	size int // line length, for byte accounting
}

// readChunk scans and decodes the next NDJSON line. ok=false means a
// terminal condition was recorded in c.err (truncation or corruption);
// empty lines are skipped.
func (c *clientStream) readChunk() (ch chunk, ok bool) {
	for {
		// Time the chunk fetch+decode exactly: chunks are coarse enough
		// (hundreds of rows) that two clock reads per chunk are free, and
		// the wait on sc.Scan is precisely this stage's blocked-upstream
		// (network/server) time.
		chunkStart := time.Now()
		if !c.sc.Scan() {
			// The body ended (or broke) before the eof terminator:
			// report truncation, never a silent short result.
			if scanErr := c.sc.Err(); scanErr != nil {
				c.err = fmt.Errorf("%w: %v", ErrTruncated, scanErr)
			} else {
				c.err = ErrTruncated
			}
			return ch, false
		}
		raw := c.sc.Bytes()
		c.read += int64(len(raw)) + 1
		if c.maxBytes > 0 && c.read > c.maxBytes {
			c.err = fmt.Errorf("%w: %s past %d bytes", errFetchTooLarge, c.def.Name, c.maxBytes)
			return ch, false
		}
		line := bytes.TrimSpace(raw)
		if len(line) == 0 {
			continue
		}
		var err error
		ch.rows, ch.meta, err = c.dec.decode(line, len(c.cols))
		var syn *syntaxError
		switch {
		case err == nil:
		case !errors.As(err, &syn):
			// Well-formed, but the cells do not fit the stream.
			c.err = err
			return ch, false
		case !c.sc.Scan():
			// An undecodable final line is a connection cut
			// mid-chunk, not corruption: classify it as truncation
			// so callers see one typed error for "body ended early".
			c.err = fmt.Errorf("%w: partial final chunk: %v", ErrTruncated, err)
			return ch, false
		default:
			c.err = fmt.Errorf("remote: decoding stream chunk: %w", err)
			return ch, false
		}
		ch.size = len(line)
		metStreamBytes("client").Add(int64(ch.size))
		c.stage.BlockedUpstream(time.Since(chunkStart))
		return ch, true
	}
}

// awaitAck reads the first chunk looking for a pushdown ack. A non-ack
// chunk (old server) is stashed for Next; a read failure stays sticky
// in c.err and surfaces on the first Next.
func (c *clientStream) awaitAck() *wirePushedAck {
	ch, ok := c.readChunk()
	if !ok {
		return nil
	}
	if ch.meta.Pushed != nil {
		return ch.meta.Pushed
	}
	c.stash = &ch
	return nil
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
		var ch chunk
		if c.stash != nil {
			ch, c.stash = *c.stash, nil
		} else {
			var ok bool
			if ch, ok = c.readChunk(); !ok {
				return nil, c.err
			}
		}
		if ch.meta.Error != "" {
			c.err = fmt.Errorf("remote: stream failed at server: %s", ch.meta.Error)
			return nil, c.err
		}
		if ch.meta.EOF {
			c.err = io.EOF
			return nil, c.err
		}
		if ch.meta.Pushed != nil && len(ch.rows) == 0 {
			// A stray ack chunk mid-stream carries no rows; skip it.
			continue
		}
		rows := ch.rows
		metStreamBatches("client").Inc()
		c.stage.AddBatch(int64(len(rows)), int64(ch.size))
		c.stage.NotePeak(int64(len(rows)))
		if len(rows) > c.peak {
			c.peak = len(rows)
		}
		// Re-check every filter locally: the server only applied the
		// pushable subset. Filters on columns a pushed projection
		// dropped are skipped — the caller holds the receipt and keeps
		// responsibility for anything it did not push.
		c.pending = c.pending[:0]
		c.pos = 0
		for _, r := range rows {
			if c.rowPassesFilters(r) {
				c.pending = append(c.pending, r)
			}
		}
	}
}

// rowPassesFilters re-applies equality filters to one decoded row using
// the prebound layout indexes.
func (c *clientStream) rowPassesFilters(r storage.Row) bool {
	for i, f := range c.filters {
		ci := c.filterIdx[i]
		if ci < 0 {
			continue
		}
		cmp, err := r[ci].Compare(f.Value)
		if err != nil || cmp != 0 {
			return false
		}
	}
	return true
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
