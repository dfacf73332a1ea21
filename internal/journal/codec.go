package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"

	"cohera/internal/value"
	"cohera/internal/wal"
)

// Durable record framing. Each record is
//
//	[4-byte big-endian payload length][4-byte IEEE CRC32 of payload][payload]
//
// so replay can detect a torn tail (partial header, short payload, or
// corrupted bytes) and truncate the log at the last intact record
// instead of trusting garbage. The payload's first byte is its format
// version: 1 is the binary layout of appendPayload, written today; a
// '{' is version 0, the JSON records of earlier releases, still read
// so an old journal (or a checkpoint holding one) replays.

const (
	frameHeaderLen = 8
	// maxPayload bounds a single record so a corrupted length field
	// cannot make replay allocate gigabytes before the CRC catches it.
	maxPayload = 1 << 20
)

// record kinds.
const (
	kindIntent    = "intent"
	kindApplied   = "applied"
	kindAbandoned = "abandoned"
)

// record is one decoded journal record. Intent records carry the full
// write; applied/abandoned markers carry only it.StmtID, the statement
// they settle.
type record struct {
	kind string
	it   Intent
}

// Payload format versions: the first byte of every frame payload.
const (
	formatJSON   = '{' // version 0: read, never written
	formatBinary = 1   // version 1: appendPayload
)

// Binary codes of record kinds and intent ops; 0 is unused so a zero
// byte never decodes.
var (
	recordKinds = [...]string{1: kindIntent, kindApplied, kindAbandoned}
	intentOps   = [...]Op{1: OpUpsert, OpSQL}
)

func kindCode(k string) byte {
	for i := 1; i < len(recordKinds); i++ {
		if recordKinds[i] == k {
			return byte(i)
		}
	}
	return 0
}

func opCode(op Op) byte {
	for i := 1; i < len(intentOps); i++ {
		if intentOps[i] == op {
			return byte(i)
		}
	}
	return 0
}

// appendPayload appends r's version-1 payload:
//
//	0x01 kind:byte stmt
//	intent only: seq:uvarint table frag op:byte sql row
//
// with strings length-prefixed and the row a value.AppendRow row.
func appendPayload(dst []byte, r record) []byte {
	dst = append(dst, formatBinary, kindCode(r.kind))
	dst = value.AppendString(dst, r.it.StmtID)
	if r.kind != kindIntent {
		return dst
	}
	dst = binary.AppendUvarint(dst, r.it.Seq)
	dst = value.AppendString(dst, r.it.Table)
	dst = value.AppendString(dst, r.it.Fragment)
	dst = append(dst, opCode(r.it.Op))
	dst = value.AppendString(dst, r.it.SQL)
	return value.AppendRow(dst, r.it.Row)
}

// readPayload decodes a version-1 payload written by appendPayload.
func readPayload(payload []byte) (record, error) {
	d := value.NewDecoder(payload)
	var r record
	if d.Byte() != formatBinary {
		return record{}, value.ErrCorrupt
	}
	if k := d.Byte(); int(k) < len(recordKinds) {
		r.kind = recordKinds[k]
	}
	if r.kind == "" {
		return record{}, value.ErrCorrupt
	}
	r.it.StmtID = d.Str()
	if r.kind == kindIntent {
		r.it.Seq = d.Uvarint()
		r.it.Table, r.it.Fragment = d.Str(), d.Str()
		if op := d.Byte(); int(op) < len(intentOps) {
			r.it.Op = intentOps[op]
		}
		if r.it.Op == "" {
			d.Corrupt()
		}
		r.it.SQL = d.Str()
		if row := d.Row(); len(row) > 0 {
			r.it.Row = row
		}
	}
	if err := d.Finish(); err != nil {
		return record{}, err
	}
	return r, nil
}

// wireRecord is the version-0 (JSON) journal record, read so an old
// journal replays; values use the WAL's version-0 value form.
type wireRecord struct {
	Kind     string    `json:"kind"`
	StmtID   string    `json:"stmt"`
	Seq      uint64    `json:"seq,omitempty"`
	Table    string    `json:"table,omitempty"`
	Fragment string    `json:"frag,omitempty"`
	Op       string    `json:"op,omitempty"`
	SQL      string    `json:"sql,omitempty"`
	Row      []wal.Val `json:"row,omitempty"`
}

// readPayloadV0 decodes a version-0 payload. Kinds it does not know
// decode (and replay ignores them), as they always have.
func readPayloadV0(payload []byte) (record, error) {
	var wr wireRecord
	if err := json.Unmarshal(payload, &wr); err != nil {
		return record{}, err
	}
	r := record{kind: wr.Kind, it: Intent{StmtID: wr.StmtID}}
	if wr.Kind != kindIntent {
		return r, nil
	}
	r.it = Intent{
		StmtID: wr.StmtID, Seq: wr.Seq,
		Table: wr.Table, Fragment: wr.Fragment, Op: Op(wr.Op), SQL: wr.SQL,
	}
	if opCode(r.it.Op) == 0 {
		return record{}, fmt.Errorf("journal: unknown intent op %q", wr.Op)
	}
	if len(wr.Row) > 0 {
		row, err := wal.DecodeRow(wr.Row)
		if err != nil {
			return record{}, err
		}
		r.it.Row = row
	}
	return r, nil
}

// encodeFrame frames r as one version-1 record.
func encodeFrame(r record) ([]byte, error) {
	if kindCode(r.kind) == 0 || (r.kind == kindIntent && opCode(r.it.Op) == 0) {
		return nil, fmt.Errorf("journal: cannot encode %s record with op %q", r.kind, r.it.Op)
	}
	frame := appendPayload(make([]byte, frameHeaderLen, 64), r)
	payload := frame[frameHeaderLen:]
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("journal: record payload %d bytes exceeds cap %d", len(payload), maxPayload)
	}
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return frame, nil
}

// errFormat reports a payload whose version byte is unknown.
var errFormat = errors.New("journal: unknown record format")

// readFrame parses one framed record at buf[off:]. It returns the
// decoded record and the offset just past it, or ok=false when the
// bytes at off are not an intact record (short header, short or
// oversized payload, CRC mismatch, or a payload that does not decode)
// — the torn-tail signal.
func readFrame(buf []byte, off int) (r record, next int, ok bool) {
	if off+frameHeaderLen > len(buf) {
		return record{}, off, false
	}
	n := int(binary.BigEndian.Uint32(buf[off : off+4]))
	sum := binary.BigEndian.Uint32(buf[off+4 : off+8])
	if n > maxPayload || off+frameHeaderLen+n > len(buf) {
		return record{}, off, false
	}
	payload := buf[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return record{}, off, false
	}
	var err error
	switch {
	case n > 0 && payload[0] == formatBinary:
		r, err = readPayload(payload)
	case n > 0 && payload[0] == formatJSON:
		r, err = readPayloadV0(payload)
	default:
		err = errFormat
	}
	if err != nil {
		return record{}, off, false
	}
	return r, off + frameHeaderLen + n, true
}
