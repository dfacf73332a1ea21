package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// FuzzDecodeStream feeds arbitrary bytes to the NDJSON chunk decoder
// as if they were a /fetchstream response body. Invariants: the
// decoder never panics, every yielded row has exactly the schema's
// width, the stream always terminates in io.EOF or a typed error
// (never runs forever), the terminal error is sticky, and Close always
// succeeds.
func FuzzDecodeStream(f *testing.F) {
	// Seeds are what a server writes, so the fuzzer starts from bodies
	// that yield rows.
	line := func(rows ...storage.Row) string { return string(appendRows(nil, rows)) + "\n" }
	meta := func(c streamChunk) string {
		b, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	r1 := storage.Row{value.NewInt(1), value.NewString("a")}
	r2 := storage.Row{value.NewInt(-7), value.NewString("<&> é\n")}
	r3 := storage.Row{value.NewInt(3), value.Null}
	eof := meta(streamChunk{EOF: true})
	f.Add([]byte(line(r1, r2) + line(r3) + line(r1) + eof))                                             // multi-chunk
	f.Add([]byte(meta(streamChunk{Pushed: &wirePushedAck{Where: true, Limit: true}}) + line(r2) + eof)) // ack first
	f.Add([]byte(line(r1) + meta(streamChunk{Error: "disk on fire"})))                                  // error line
	f.Add([]byte(line(r3) + `{"eof":true,"trailer":{"stages":[{"name":"scan","rows":1}]}}` + "\n"))     // eof with an unknown member
	f.Add([]byte(line(r1, r2)))                                                                         // missing terminator
	f.Add([]byte(line(r1)[:20]))                                                                        // cut mid-chunk
	f.Add([]byte(`{"rows":[[{"k":"int","i":1}]]}` + "\n" + eof))                                        // short row
	f.Add([]byte(`{"rows":[[{"k":"nosuchkind"},{"k":"string","s":"a"}]]}` + "\n" + eof))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte(""))
	f.Add([]byte(`not json at all`))

	def := schema.MustTable("fuzzed", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "name", Kind: value.KindString},
	}, "id")

	f.Fuzz(func(t *testing.T, data []byte) {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 64<<10), maxStreamLine)
		_, sp := obs.StartSpan(context.Background(), "remote.fetchstream")
		metStreamInflight("client").Add(1)
		cs := &clientStream{
			def:  def,
			cols: def.ColumnNames(),
			body: io.NopCloser(bytes.NewReader(nil)),
			sc:   sc,
			sp:   sp,
		}
		var terminal error
		for i := 0; i < 1<<17; i++ {
			row, err := cs.Next()
			if err != nil {
				terminal = err
				break
			}
			if len(row) != len(cs.cols) {
				t.Fatalf("row width %d, want %d", len(row), len(cs.cols))
			}
		}
		if terminal == nil {
			t.Fatal("stream did not terminate")
		}
		if _, err := cs.Next(); err != terminal && err.Error() != terminal.Error() {
			t.Fatalf("terminal error not sticky: %v then %v", terminal, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if _, err := cs.Next(); err != storage.ErrStreamClosed {
			t.Fatalf("Next after Close = %v", err)
		}
	})
}
