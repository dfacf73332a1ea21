package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// rowsFrame is one R frame of rows, encoded as the server encodes a
// chunk.
func rowsFrame(rows ...storage.Row) []byte {
	buf := make([]byte, frameHeaderRoom)
	for _, r := range rows {
		buf = value.AppendRow(buf, r)
	}
	return sealFrame(buf, frameRows)
}

// jsonFrame is one M frame carrying js verbatim.
func jsonFrame(js string) []byte {
	return sealFrame(append(make([]byte, frameHeaderRoom), js...), frameMeta)
}

var eofFrame = jsonFrame(`{"eof":true}`)

// serveFrames answers a /fetchstream request with frames, in the
// wire's content type.
func serveFrames(w http.ResponseWriter, frames ...[]byte) {
	w.Header().Set("Content-Type", framesContentType)
	for _, f := range frames {
		if _, err := w.Write(f); err != nil {
			return
		}
	}
}

// frameStream is a client stream reading body as a /fetchstream
// response whose rows are width cells wide.
func frameStream(body []byte, width int) *clientStream {
	def := schema.MustTable("framed", []schema.Column{{Name: "c0", Kind: value.KindInt}})
	_, sp := obs.StartSpan(context.Background(), "remote.fetchstream")
	metStreamInflight("client").Add(1)
	return &clientStream{
		def:  def,
		cols: make([]string, width),
		body: io.NopCloser(bytes.NewReader(nil)),
		br:   bufio.NewReader(bytes.NewReader(body)),
		sp:   sp,
	}
}

// sameRows reports bit-for-bit equal rows: the binary encoding keeps
// NaN payloads, the sign of zero and every string byte, so two rows
// that encode alike are identical.
func sameRows(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(value.AppendRow(nil, a[i]), value.AppendRow(nil, b[i])) {
			return false
		}
	}
	return true
}

// catalogShard is one benchmark-sized catalog shard: strings, money,
// durations and ints, as the federation ships them.
func catalogShard(t testing.TB, n int) []storage.Row {
	t.Helper()
	sup := workload.Suppliers(1, n, 0.05, 1)[0]
	rows, err := workload.GroundTruthRows(sup, value.DefaultCurrencyTable())
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestCatalogShardRoundTrip sends a full 5 000-row catalog shard
// through the frame codec in wire-sized chunks: every chunk reads back
// bit for bit, and its frame is the header and the rows' disk encoding.
func TestCatalogShardRoundTrip(t *testing.T) {
	shard := catalogShard(t, 5000)
	width := len(workload.CatalogDef().Columns)
	var dec rowDecoder
	for lo := 0; lo < len(shard); lo += storage.DefaultBatchRows {
		chunk := shard[lo:min(lo+storage.DefaultBatchRows, len(shard))]
		frame, payload := rowsFrame(chunk...), payloadOf(chunk)
		if !bytes.HasSuffix(frame, payload) || frame[0] != frameRows {
			t.Fatalf("chunk at %d: the frame is not a header and the rows' binary encoding", lo)
		}
		got, err := dec.decode(payload, width)
		if err != nil || !sameRows(got, chunk) {
			t.Fatalf("chunk at %d: decoded %d rows, err %v", lo, len(got), err)
		}
	}
}

// TestNonFiniteFloatsCrossTheWire: NaN, ±Inf and −0 reach storage
// through feed text, and the stream and Fetch both carry them bit for
// bit, NaN payloads included.
func TestNonFiniteFloatsCrossTheWire(t *testing.T) {
	def := schema.MustTable("readings", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "x", Kind: value.KindFloat},
	}, "id")
	tbl := storage.NewTable(def)
	want := []storage.Row{
		{value.NewInt(1), value.NewFloat(math.NaN())},
		{value.NewInt(2), value.NewFloat(math.Inf(1))},
		{value.NewInt(3), value.NewFloat(math.Inf(-1))},
		{value.NewInt(4), value.NewFloat(2.5)},
		{value.NewInt(5), value.NewFloat(math.Copysign(0, -1))},
		{value.NewInt(6), value.NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef))},
	}
	for _, r := range want {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer()
	srv.PublishTable(tbl)
	hs := httptest.NewServer(srv)
	defer hs.Close()
	src := streamSource(t, hs)
	ctx := context.Background()

	st, err := plainStream(ctx, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := storage.CollectRows(st)
	if err != nil || !sameRows(got, want) {
		t.Fatalf("FetchPushStream = %v, %v", got, err)
	}
	if got, err = src.Fetch(ctx, nil); err != nil || !sameRows(got, want) {
		t.Fatalf("Fetch = %v, %v", got, err)
	}
}

// TestDecodedRowsDoNotAlias: rows of one chunk share a backing array,
// so each must be capped at its width — a caller's append copies
// instead of writing into the next row.
func TestDecodedRowsDoNotAlias(t *testing.T) {
	srv := NewServer()
	srv.PublishTable(numbersTable(t, 10), "id")
	hs := httptest.NewServer(srv)
	defer hs.Close()
	st, err := plainStream(context.Background(), streamSource(t, hs), nil)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := storage.CollectRows(st)
	if err != nil || len(rows) != 10 {
		t.Fatalf("%d rows, err %v", len(rows), err)
	}
	for i := 0; i+1 < len(rows); i++ {
		if cap(rows[i]) != len(rows[i]) {
			t.Fatalf("row %d: cap %d > width %d", i, cap(rows[i]), len(rows[i]))
		}
		next := append(storage.Row(nil), rows[i+1]...)
		_ = append(rows[i], value.NewString("spill"))
		if !sameRows([]storage.Row{rows[i+1]}, []storage.Row{next}) {
			t.Fatalf("append to row %d changed row %d: %v", i, i+1, rows[i+1])
		}
	}
}

// TestChunkDecodeAllocsFlat: a chunk decodes into one string, one
// backing array and the row headers, so its allocation count does not
// grow with its row count.
func TestChunkDecodeAllocsFlat(t *testing.T) {
	shard := catalogShard(t, 256)
	width := len(shard[0])
	var allocs []float64
	for _, n := range []int{16, 256} {
		payload := payloadOf(shard[:n])
		var dec rowDecoder
		if _, err := dec.decode(payload, width); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			if _, err := dec.decode(payload, width); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if allocs[0] != allocs[1] || allocs[1] > 3 {
		t.Fatalf("a 16-row chunk decodes in %v allocations and a 256-row chunk in %v; want the same, at most 3", allocs[0], allocs[1])
	}
}

// TestFrameErrorClasses pins what each kind of bad body ends in: a
// body cut before or inside a frame is ErrTruncated, a complete frame
// that does not decode is corruption, and a row of the wrong width, an
// unknown frame kind or a frame past the cap is a plain error.
func TestFrameErrorClasses(t *testing.T) {
	two := rowsFrame(storage.Row{value.NewInt(1), value.NewString("a")})
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const truncated, corrupt, plain = "truncated", "corrupt", "plain"
	for _, tc := range []struct {
		name, class string
		body        []byte
	}{
		{"no terminator", truncated, two},
		{"cut mid-header", truncated, cat(two, []byte{frameRows, 0x80})},
		{"cut mid-payload", truncated, cat(two, two[:len(two)-1])},
		{"bad bool byte", corrupt, []byte{frameRows, 4, 2, byte(value.KindBool), 2, byte(value.KindNull)}},
		{"bad meta json", corrupt, jsonFrame(`{"eof":`)},
		{"long header", corrupt, []byte{frameRows, 0x80, 0}},
		{"length past 64 bits", corrupt, overflowHeader(0x02)},
		{"length of 2^63 past 64 bits", corrupt, overflowHeader(0x03)},
		{"short row", plain, rowsFrame(storage.Row{value.NewInt(1)})},
		{"long row", plain, rowsFrame(storage.Row{value.NewInt(1), value.Null, value.Null})},
		{"unknown frame kind", plain, []byte{'X', 0}},
		{"frame past the cap", plain, binary.AppendUvarint([]byte{frameRows}, maxStreamFrame+1)},
	} {
		cs := frameStream(cat(tc.body, eofFrame), 2)
		if tc.class == truncated {
			cs = frameStream(tc.body, 2)
		}
		var err error
		for err == nil {
			_, err = cs.Next()
		}
		var got string
		switch {
		case errors.Is(err, ErrTruncated):
			got = truncated
		case errors.Is(err, value.ErrCorrupt) || strings.Contains(err.Error(), "decoding stream frame"):
			got = corrupt
		case err != io.EOF:
			got = plain
		}
		if got != tc.class {
			t.Errorf("%s: %v, want a %s error", tc.name, err, tc.class)
		}
	}
}

// overflowHeader is an R frame header whose ten-byte length ends in
// last, which overflows 64 bits unless last is 0 or 1.
func overflowHeader(last byte) []byte {
	return append(append([]byte{frameRows}, bytes.Repeat([]byte{0x80}, 9)...), last)
}

// fuzzRow builds a row with one cell per byte of kinds, all eight kinds
// reachable, payloads drawn from the other arguments.
func fuzzRow(kinds []byte, i int64, f float64, s string, b bool) storage.Row {
	var row storage.Row
	for j, k := range kinds {
		var v value.Value
		switch k % 8 {
		case 0:
			v = value.Null
		case 1:
			v = value.NewBool(b != (j%2 == 1))
		case 2:
			v = value.NewInt(i - int64(j))
		case 3:
			v = value.NewFloat(f * float64(j+1))
		case 4:
			v = value.NewString(s[:min(j, len(s))] + s)
		case 5:
			v = value.NewMoney(i, s)
		case 6:
			v = value.NewTime(time.Unix(0, i))
		default:
			v = value.NewDuration(time.Duration(i), value.DurationSemantics(s))
		}
		row = append(row, v)
	}
	return row
}

// FuzzRowCodec holds the frame codec to its contract: every row of
// every kind reads back bit for bit (NaN payloads, ±Inf, −0 and invalid
// UTF-8 included); any bytes are refused or decoded without a panic,
// into rows of exactly the stream's width; and a row frame the decoder
// accepts re-encodes to the same bytes.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(42), 1.5, "P0000001", true, rowsFrame(storage.Row{value.NewInt(1)}))
	f.Add([]byte{3, 2, 6, 4, 5, 7}, int64(math.MinInt64), math.Copysign(0, -1), "\xff\xfe", false, jsonFrame(`{"eof":true,"trailer":{"a":[1,{"b":null}]}}`))
	f.Add([]byte{4, 5, 7, 2}, int64(math.MaxInt64), 0.0, "a<b>&c\u2028d\u2029", true, rowsFrame())
	f.Add([]byte{4, 3}, int64(-1), 1e-7, "\x00\x01\b\f\n\r\t\"\\\x7f", false, rowsFrame(storage.Row{value.NewFloat(math.Inf(-1)), value.NewString("xé😀")}))
	f.Add([]byte{3, 5, 7}, int64(1e18), 1e21, "usd", true, []byte{frameRows, 0x82, 0x00, 1, 0})
	f.Add([]byte{3, 4}, int64(7), math.Float64frombits(0x7ff8_0000_dead_beef), "café", false, rowsFrame(storage.Row{value.NewMoney(-5, "eur")}))
	f.Add([]byte{3}, int64(0), math.Inf(1), "", true, []byte{frameRows, 4, 1, byte(value.KindInt), 0x80, 0x00})
	f.Add([]byte{3}, int64(0), math.Inf(-1), "x", true, []byte{frameRows, 3, 1, byte(value.KindBool), 2})
	f.Add([]byte{2}, int64(3), 2.5, "y", false, overflowHeader(0x02))

	f.Fuzz(func(t *testing.T, kinds []byte, i int64, fl float64, s string, b bool, frame []byte) {
		if len(kinds) > 16 {
			kinds = kinds[:16]
		}
		row := fuzzRow(kinds, i, fl, s, b)
		want := []storage.Row{row, row}
		ch, ok := frameStream(rowsFrame(want...), len(row)).readChunk()
		if !ok || !sameRows(ch.rows, want) {
			t.Fatalf("round trip of %v: got %v, ok %v", want, ch.rows, ok)
		}

		for _, width := range []int{0, 1, 2, len(row)} {
			cs := frameStream(frame, width)
			ch, ok := cs.readChunk()
			if !ok {
				if cs.err == nil {
					t.Fatalf("%q: refused without an error", frame)
				}
				continue
			}
			for _, r := range ch.rows {
				if len(r) != width {
					t.Fatalf("%q: row width %d, want %d", frame, len(r), width)
				}
			}
			if frame[0] == frameRows && !bytes.Equal(rowsFrame(ch.rows...), frame[:ch.size]) {
				t.Fatalf("%q: accepted rows %v re-encode to %q", frame[:ch.size], ch.rows, rowsFrame(ch.rows...))
			}
		}
	})
}

// payloadOf is an R frame's payload: rows back to back.
func payloadOf(rows []storage.Row) []byte {
	var b []byte
	for _, r := range rows {
		b = value.AppendRow(b, r)
	}
	return b
}

func reportPerRow(b *testing.B, rows, frameBytes int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(frameBytes)/float64(rows), "B/row")
}

// BenchmarkChunkEncode prices the server side of one chunk of catalog
// rows: rows into the reused buffer, then the header.
func BenchmarkChunkEncode(b *testing.B) {
	rows := catalogShard(b, storage.DefaultBatchRows)
	buf := make([]byte, frameHeaderRoom)
	var frame []byte
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		buf = buf[:frameHeaderRoom]
		for _, r := range rows {
			buf = value.AppendRow(buf, r)
		}
		frame = sealFrame(buf, frameRows)
	}
	b.StopTimer()
	b.SetBytes(int64(len(frame)))
	reportPerRow(b, len(rows), len(frame))
}

// BenchmarkChunkDecode prices the client side of one chunk of catalog
// rows: the payload into rows over one fresh string and backing array.
func BenchmarkChunkDecode(b *testing.B) {
	rows := catalogShard(b, storage.DefaultBatchRows)
	payload, width := payloadOf(rows), len(rows[0])
	var dec rowDecoder
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := dec.decode(payload, width); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRow(b, len(rows), len(rowsFrame(rows...)))
}
