package remote

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"cohera/internal/obs"
	"cohera/internal/schema"
	"cohera/internal/storage"
	"cohera/internal/value"
)

// FuzzDecodeStream feeds arbitrary bytes to the frame reader as if
// they were a /fetchstream response body. Invariants: the decoder never
// panics, every yielded row has exactly the schema's width, the stream
// always terminates in io.EOF or a typed error (never runs forever),
// the terminal error is sticky, and Close always succeeds.
func FuzzDecodeStream(f *testing.F) {
	// Seeds are what a server writes, so the fuzzer starts from bodies
	// that yield rows.
	body := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	meta := func(c streamChunk) []byte {
		b, err := metaFrame(c)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	r1 := storage.Row{value.NewInt(1), value.NewString("a")}
	r2 := storage.Row{value.NewInt(-7), value.NewString("<&> é\n\xff")}
	r3 := storage.Row{value.NewInt(3), value.Null}
	long := storage.Row{value.NewInt(4), value.NewString(strings.Repeat("x", 200))}
	eof := meta(streamChunk{EOF: true})
	f.Add(body(rowsFrame(r1, r2), rowsFrame(r3), rowsFrame(r1), eof))                                     // multi-chunk
	f.Add(body(jsonFrame(`{"pushed":{"where":true,"limit":true}}`), rowsFrame(r2), eof))                  // an earlier release's ack first
	f.Add(body(rowsFrame(r1), meta(streamChunk{Error: "disk on fire"})))                                  // error frame
	f.Add(body(rowsFrame(r3), jsonFrame(`{"eof":true,"trailer":{"stages":[{"name":"scan","rows":1}]}}`))) // eof with an unknown member
	f.Add(body(rowsFrame(r1, r2)))                                                                        // missing terminator
	f.Add(body(rowsFrame(r1), rowsFrame(long)[:2]))                                                       // cut mid-header
	f.Add(body(rowsFrame(r1), rowsFrame(r2)[:6]))                                                         // cut mid-payload
	f.Add(body(rowsFrame(storage.Row{value.NewInt(1)}), eof))                                             // short row
	f.Add(body([]byte{frameRows, 4, 2, 9, 4, 0}, eof))                                                    // unknown value kind
	f.Add(body([]byte{'X', 1, 0}, eof))                                                                   // unknown frame kind
	f.Add([]byte(""))
	f.Add(body([]byte{frameRows, 0x80, 0}, eof))                                // a length not in its shortest form
	f.Add(body(binary.AppendUvarint([]byte{frameRows}, maxStreamFrame+1), eof)) // a frame past the cap
	f.Add([]byte(`{"eof":true}` + "\n"))                                        // an NDJSON body

	def := schema.MustTable("fuzzed", []schema.Column{
		{Name: "id", Kind: value.KindInt, NotNull: true},
		{Name: "name", Kind: value.KindString},
	}, "id")

	f.Fuzz(func(t *testing.T, data []byte) {
		_, sp := obs.StartSpan(context.Background(), "remote.fetchstream")
		metStreamInflight("client").Add(1)
		cs := &clientStream{
			def:  def,
			cols: def.ColumnNames(),
			body: io.NopCloser(bytes.NewReader(nil)),
			br:   bufio.NewReader(bytes.NewReader(data)),
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
