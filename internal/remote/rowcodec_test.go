package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
	"cohera/internal/workload"
)

// refCell is the cell as encoding/json wrote and read it before the
// hand-written codec: the byte-for-byte reference for finite rows.
type refCell struct {
	Kind string   `json:"k"`
	I    int64    `json:"i,omitempty"`
	F    refFloat `json:"f,omitempty"`
	S    string   `json:"s,omitempty"`
	B    bool     `json:"b,omitempty"`
}

// refFloat encodes as a plain float64; it decodes a number or one of
// the non-finite spellings, so the reference decoder reads everything
// the codec writes.
type refFloat float64

func (f *refFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = refFloat(math.NaN())
	case `"+Inf"`:
		*f = refFloat(math.Inf(1))
	case `"-Inf"`:
		*f = refFloat(math.Inf(-1))
	default:
		var v float64
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		*f = refFloat(v)
	}
	return nil
}

// refChunk is a whole /fetchstream line as encoding/json saw it.
type refChunk struct {
	Rows   [][]refCell    `json:"rows,omitempty"`
	Pushed *wirePushedAck `json:"pushed,omitempty"`
	Error  string         `json:"error,omitempty"`
	EOF    bool           `json:"eof,omitempty"`
}

// appendRows appends the {"rows":[...]} object for rows, the way the
// server writes one chunk line.
func appendRows(b []byte, rows []storage.Row) []byte {
	b = append(b, rowsOpen...)
	for i, r := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, r)
	}
	return append(b, rowsClose...)
}

func refEncodeRows(rows []storage.Row) [][]refCell {
	out := make([][]refCell, len(rows))
	for i, r := range rows {
		out[i] = make([]refCell, len(r))
		for j, v := range r {
			w := encodeValue(v)
			out[i][j] = refCell{Kind: w.Kind, I: w.I, F: refFloat(w.F), S: w.S, B: w.B}
		}
	}
	return out
}

func refDecodeRows(in [][]refCell) ([]storage.Row, error) {
	out := make([]storage.Row, len(in))
	for i, wr := range in {
		out[i] = make(storage.Row, len(wr))
		for j, c := range wr {
			v, err := decodeValue(wireValue{Kind: c.Kind, I: c.I, F: float64(c.F), S: c.S, B: c.B})
			if err != nil {
				return nil, err
			}
			out[i][j] = v
		}
	}
	return out, nil
}

// refStreamLine is one /fetchstream row chunk as json.Encoder wrote it.
func refStreamLine(t testing.TB, rows []storage.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(refChunk{Rows: refEncodeRows(rows)}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func equalRows(a, b []storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
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

// TestMixedVersionCatalogShard sends a full 5 000-row catalog shard
// across both version boundaries in wire-sized chunks: the codec must
// write the bytes encoding/json wrote, read what encoding/json wrote,
// and be read by encoding/json.
func TestMixedVersionCatalogShard(t *testing.T) {
	shard := catalogShard(t, 5000)
	width := len(workload.CatalogDef().Columns)
	var dec rowDecoder
	for lo := 0; lo < len(shard); lo += storage.DefaultBatchRows {
		chunk := shard[lo:min(lo+storage.DefaultBatchRows, len(shard))]
		ref := refStreamLine(t, chunk)
		mine := append(appendRows(nil, chunk), '\n')
		if !bytes.Equal(mine, ref) {
			t.Fatalf("chunk at %d: encoder bytes differ from encoding/json", lo)
		}
		// Reference encoder → new decoder.
		got, _, err := dec.decode(bytes.TrimSpace(ref), width)
		if err != nil || !equalRows(got, chunk) {
			t.Fatalf("chunk at %d: new decoder read %d rows, err %v", lo, len(got), err)
		}
		// New encoder → reference decoder.
		var rc refChunk
		if err := json.Unmarshal(mine, &rc); err != nil {
			t.Fatal(err)
		}
		back, err := refDecodeRows(rc.Rows)
		if err != nil || !equalRows(back, chunk) {
			t.Fatalf("chunk at %d: reference decoder read %d rows, err %v", lo, len(back), err)
		}
	}
}

// TestNonFiniteFloatsCrossTheWire: NaN and ±Inf reach storage through
// feed text, so both the stream and Fetch must carry them — as the
// strings "NaN", "+Inf", "-Inf" — where encoding/json used to fail the
// whole transfer.
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
	if err != nil || !equalRows(got, want) {
		t.Fatalf("FetchPushStream = %v, %v", got, err)
	}
	if got, err = src.Fetch(ctx, nil); err != nil || !equalRows(got, want) {
		t.Fatalf("Fetch = %v, %v", got, err)
	}

	line := appendRows(nil, want[:3])
	if !bytes.Contains(line, []byte(`"f":"NaN"`)) || !bytes.Contains(line, []byte(`"f":"+Inf"`)) || !bytes.Contains(line, []byte(`"f":"-Inf"`)) {
		t.Fatalf("non-finite spellings missing: %s", line)
	}
	// A decoder that predates the spellings fails loudly rather than
	// reading 0.
	var old struct {
		Rows [][]wireValue `json:"rows"`
	}
	if err := json.Unmarshal(line, &old); err == nil {
		t.Fatal("an encoding/json decoder accepted a non-finite float")
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
		if !equalRows([]storage.Row{rows[i+1]}, []storage.Row{next}) {
			t.Fatalf("append to row %d changed row %d: %v", i, i+1, rows[i+1])
		}
	}
}

// wantAfterTrip is what a round trip makes of v: invalid UTF-8 becomes
// U+FFFD byte by byte, as encoding/json writes it. (−0 reads back as +0,
// which Equal already treats as equal, and money is upper-cased when it
// is built.)
func wantAfterTrip(v value.Value) value.Value {
	fix := func(s string) string {
		var b strings.Builder
		for i := 0; i < len(s); {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				b.WriteRune(utf8.RuneError)
			} else {
				b.WriteString(s[i : i+n])
			}
			i += n
		}
		return b.String()
	}
	switch v.Kind() {
	case value.KindString:
		return value.NewString(fix(v.Str()))
	case value.KindMoney:
		amt, cur := v.Money()
		return value.NewMoney(amt, fix(cur))
	case value.KindDuration:
		d, sem := v.Duration()
		return value.NewDuration(d, value.DurationSemantics(fix(string(sem))))
	}
	return v
}

// fuzzRow builds a row with one cell per byte of kinds, all eight kinds
// reachable, payloads drawn from the other arguments.
func fuzzRow(kinds []byte, i int64, f float64, s string, b bool) (row storage.Row, finite bool) {
	finite = true
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
			finite = finite && !math.IsNaN(v.Float()) && !math.IsInf(v.Float(), 0)
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
	return row, finite
}

// FuzzRowCodec holds the codec to encoding/json: for finite rows the
// encoder's bytes equal the reference encoder's; every row reads back
// Equal (up to the documented lossy cases); and every line the hand
// decoder accepts, the reference decoder accepts with Equal rows.
func FuzzRowCodec(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(42), 1.5, "P0000001", true, []byte(`{"rows":[[{"k":"int","i":1}]]}`))
	f.Add([]byte{3, 2, 6, 4, 5, 7}, int64(math.MinInt64), math.Copysign(0, -1), "\xff\xfe", false, []byte(`{"eof":true,"trailer":{"a":[1,{"b":null}]}}`))
	f.Add([]byte{4, 5, 7, 2}, int64(math.MaxInt64), 0.0, "a<b>&c\u2028d\u2029", true, []byte(`{"pushed":{"where":true},"rows":[]}`))
	f.Add([]byte{4, 3}, int64(-1), 1e-7, "\x00\x01\b\f\n\r\t\"\\\x7f", false, []byte(`{"rows":[[{"k":"float","f":"-Inf"},{"s":"xé😀","k":"string"}]],"error":"x"}`))
	f.Add([]byte{3, 5, 7}, int64(1e18), 1e21, "usd", true, []byte(`{"ROWS":[[{"k":"null"}]]}`))
	f.Add([]byte{3, 4}, int64(7), math.NaN(), "café", false, []byte(` { "rows" : [ [ { "k" : "money" , "i" : -5 , "s" : "eur" } ] ] } `))
	f.Add([]byte{3}, int64(0), math.Inf(1), "", true, []byte(`{"rows":[[{"k":"int","i":1.0}]]}`))
	f.Add([]byte{3}, int64(0), math.Inf(-1), "x", true, []byte(`{"rows":[[{"k":"float","f":1e400}]]}`))

	f.Fuzz(func(t *testing.T, kinds []byte, i int64, fl float64, s string, b bool, line []byte) {
		if len(kinds) > 16 {
			kinds = kinds[:16]
		}
		row, finite := fuzzRow(kinds, i, fl, s, b)
		rows := []storage.Row{row, row}
		enc := appendRows(nil, rows)
		if finite {
			if ref := refStreamLine(t, rows); !bytes.Equal(append(enc, '\n'), ref) {
				t.Fatalf("encoder bytes differ from encoding/json:\n got %s\nwant %s", enc, ref)
			}
		}
		var dec rowDecoder
		got, _, err := dec.decode(enc, len(row))
		if err != nil {
			t.Fatalf("decoding own output %s: %v", enc, err)
		}
		want := storage.Row(nil)
		for _, v := range row {
			want = append(want, wantAfterTrip(v))
		}
		if !equalRows(got, []storage.Row{want, want}) {
			t.Fatalf("round trip: got %v, want %v", got, want)
		}

		for _, width := range []int{0, 1, 2, len(row)} {
			got, meta, err := dec.decode(line, width)
			if err != nil {
				continue
			}
			var rc refChunk
			if err := json.Unmarshal(line, &rc); err != nil {
				t.Fatalf("hand decoder accepted %q, encoding/json: %v", line, err)
			}
			ref, err := refDecodeRows(rc.Rows)
			if err != nil {
				t.Fatalf("hand decoder accepted %q, reference cells: %v", line, err)
			}
			if !equalRows(got, ref) {
				t.Fatalf("%q: hand rows %v, reference rows %v", line, got, ref)
			}
			for _, r := range got {
				if len(r) != width {
					t.Fatalf("%q: row width %d, want %d", line, len(r), width)
				}
			}
			if !reflect.DeepEqual(meta, streamChunk{Pushed: rc.Pushed, Error: rc.Error, EOF: rc.EOF}) {
				t.Fatalf("%q: hand meta %+v, reference %+v", line, meta, rc)
			}
		}
	})
}

// chunkRows is the micro-benchmarks' chunk: one wire batch of catalog
// rows.
func chunkRows(b *testing.B) []storage.Row {
	return catalogShard(b, storage.DefaultBatchRows)
}

func reportPerRow(b *testing.B, rows int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkChunkEncode prices the server side of one chunk: rows into
// the reused line buffer.
func BenchmarkChunkEncode(b *testing.B) {
	rows := chunkRows(b)
	var line []byte
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		line = appendRows(line[:0], rows)
	}
	b.StopTimer()
	b.SetBytes(int64(len(line)))
	reportPerRow(b, len(rows))
}

// BenchmarkChunkDecode prices the client side of one chunk: the line
// into rows over one fresh backing array.
func BenchmarkChunkDecode(b *testing.B) {
	rows := chunkRows(b)
	line := appendRows(nil, rows)
	width := len(rows[0])
	var dec rowDecoder
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := dec.decode(line, width); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPerRow(b, len(rows))
}
