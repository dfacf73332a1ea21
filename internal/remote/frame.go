package remote

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"cohera/internal/storage"
	"cohera/internal/value"
)

// The /fetchstream wire format. A 200 response body, Content-Type
// application/x-cohera-frames, is a sequence of frames. Each frame is
// one kind byte, a uvarint payload length in its shortest form, then
// the payload:
//
//	'R'  a row chunk: its rows back to back, each written by
//	     value.AppendRow — the disk encoding of DESIGN §12
//	'M'  a JSON streamChunk: a mid-stream error, or the {"eof":true}
//	     terminator
//
// The terminator is the last frame: a body that ends without it was
// cut. An M frame that is neither is skipped, so the leading pushdown
// ack earlier releases wrote still reads. There is one format and no
// negotiation; a client refuses any other content type.

// framesContentType is the Content-Type of a /fetchstream body.
const framesContentType = "application/x-cohera-frames"

// Frame kinds.
const (
	frameRows = 'R'
	frameMeta = 'M'
)

// maxStreamFrame bounds one frame's payload on the client. A row frame
// carries at most maxStreamBatchRows encoded rows.
const maxStreamFrame = 64 << 20

// frameHeaderRoom is the room a row chunk reserves ahead of its payload
// for the header sealFrame writes there.
const frameHeaderRoom = 1 + binary.MaxVarintLen64

// errNotFrames fails the open of a stream whose server answered in
// another wire format, such as an NDJSON peer. It is not retried.
var errNotFrames = errors.New("remote: /fetchstream answered another wire format")

// sealFrame writes a kind header into the room reserved at the front of
// buf, whose payload starts at frameHeaderRoom, and returns the frame.
func sealFrame(buf []byte, kind byte) []byte {
	var hdr [frameHeaderRoom]byte
	hdr[0] = kind
	n := 1 + binary.PutUvarint(hdr[1:], uint64(len(buf)-frameHeaderRoom))
	at := frameHeaderRoom - n
	copy(buf[at:], hdr[:n])
	return buf[at:]
}

// metaFrame encodes c as an M frame.
func metaFrame(c streamChunk) ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, err
	}
	return sealFrame(append(make([]byte, frameHeaderRoom, frameHeaderRoom+len(b)), b...), frameMeta), nil
}

// corruptFrame is a complete frame that does not decode.
func corruptFrame(kind byte, err error) error {
	return fmt.Errorf("remote: decoding stream frame %q: %w", kind, err)
}

// truncation reports a body that ended, or broke, before the eof
// terminator: never a silent short result.
func truncation(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return fmt.Errorf("%w: %v", ErrTruncated, err)
}

// readFrameHeader reads a frame's kind byte and payload length, and
// reports the header's length. A body that ends before or inside the
// header is truncated; a length not in its shortest form, or longer
// than any uvarint, is corrupt. The caller checks the length's caps.
func readFrameHeader(br *bufio.Reader) (kind byte, size uint64, hdr int, err error) {
	kind, err = br.ReadByte()
	if err != nil {
		return 0, 0, 0, truncation(err)
	}
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, 0, 0, truncation(err)
		}
		if b < 0x80 {
			// A zero last byte is not the shortest form; a tenth byte
			// above 1 holds bits past the 64th.
			if b == 0 && i > 0 || b > 1 && i == binary.MaxVarintLen64-1 {
				break
			}
			return kind, size | uint64(b)<<(7*i), 2 + i, nil
		}
		size |= uint64(b&0x7f) << (7 * i)
	}
	return 0, 0, 0, corruptFrame(kind, value.ErrCorrupt)
}

// rowDecoder decodes R payloads. Its zero value is ready; it keeps
// scratch cells between chunks, so one decoder serves one stream.
type rowDecoder struct {
	cells []value.Value
}

// decode reads a chunk whose rows must each have width cells. The chunk
// costs three allocations whatever its row count: one string holding
// the payload, of which every string cell is a substring; one
// exact-size backing array; and the row headers, each a cap-limited
// slice of it, so a caller's append copies instead of overwriting the
// next row. A retained row keeps its chunk's string alive.
func (r *rowDecoder) decode(payload []byte, width int) ([]storage.Row, error) {
	d := value.NewDecoderIn(payload, string(payload))
	cells, nrows := r.cells[:0], 0
	for len(d.Rest()) > 0 {
		// A row of the wrong width is wire corruption, or a peer that
		// did not answer the projection or grouping asked of it;
		// letting it through would index past the row downstream or
		// feed the evaluator garbage.
		if n := d.Count(1); n != width {
			if d.Err() != nil {
				break
			}
			return nil, fmt.Errorf("remote: stream row has %d cells, want %d", n, width)
		}
		at := len(cells)
		cells = slices.Grow(cells, width)[:at+width]
		d.Values(cells[at:])
		nrows++
	}
	r.cells = cells
	if err := d.Err(); err != nil {
		return nil, corruptFrame(frameRows, err)
	}
	if nrows == 0 {
		return nil, nil
	}
	backing := slices.Clone(cells)
	rows := make([]storage.Row, nrows)
	for i := range rows {
		lo := i * width
		rows[i] = backing[lo : lo+width : lo+width]
	}
	return rows, nil
}
