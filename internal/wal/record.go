// Package wal is the per-site write-ahead log behind durable storage:
// every mutation an exec.Database applies is recorded here before the
// statement acknowledges, periodic checkpoints bound replay time, and
// startup recovery rebuilds the engine (and the pending write-intent
// journal) from the last checkpoint plus the surviving log tail.
//
// Records use the journal's proven framing —
//
//	[4-byte big-endian payload length][4-byte IEEE CRC32 of payload][payload]
//
// — so recovery detects a torn tail (partial header, short payload,
// corrupted bytes) and truncates the file at the last intact record.
// The payload's first byte is its format version: 1 is the binary
// layout below, written today; a '{' is version 0, the JSON records of
// earlier releases, still read so an old log replays (see DESIGN §12).
// wal sits below internal/journal and internal/remote and imports
// neither.
//
// Records are logical, not physical: storage row ids are assigned per
// process and do not survive a restart, so put/upd/del records carry
// row contents and are resolved by primary key (or whole-row equality
// for keyless tables) during replay. Replayed content hashes to the
// same order-independent table digest as the pre-crash table, which is
// what lets anti-entropy verify a recovery was exact.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"cohera/internal/value"
)

const (
	frameHeaderLen = 8
	// maxPayload bounds a single record so a corrupted length field
	// cannot make replay allocate gigabytes before the CRC catches it.
	maxPayload = 1 << 20
)

// Record kinds. Table-op kinds replay against the engine; journal
// kinds rehydrate write-intent groups.
const (
	// KindCreate defines a table (schema + key).
	KindCreate = "create"
	// KindIndex declares a secondary index on an existing table.
	KindIndex = "index"
	// KindPut upserts the row (insert, or replace-by-primary-key).
	KindPut = "put"
	// KindUpd replaces the row equal to the old image with the row.
	KindUpd = "upd"
	// KindDel deletes the row equal to the row image (the pre-image).
	KindDel = "del"
	// KindTrunc removes every row of Table.
	KindTrunc = "trunc"
	// KindJFrame carries one opaque journal record (already framed by
	// internal/journal) for the (Site, Table, Frag) intent log.
	KindJFrame = "jframe"
	// KindJReset clears every fragment log of the (Site, Table) journal
	// group — written when copy-repair re-established the replica.
	KindJReset = "jreset"
)

// Record is one WAL frame's payload. The JSON tags are the version-0
// format, which recovery still reads.
//
// A row image has two spellings. Values and OldValues hold it as
// values: exec logs them that way, and every decoded record carries
// its images there. Row and Old are the kind-tagged Val form — the
// version-0 JSON fields — which Append also accepts, for callers that
// build a record by hand; a record may spell each image only one way.
type Record struct {
	LSN       uint64        `json:"lsn"`
	Kind      string        `json:"kind"`
	Table     string        `json:"table,omitempty"`
	Schema    *TableSchema  `json:"schema,omitempty"`
	Column    string        `json:"col,omitempty"`
	Hash      bool          `json:"hash,omitempty"`
	Values    []value.Value `json:"-"`
	OldValues []value.Value `json:"-"`
	Row       []Val         `json:"row,omitempty"`
	Old       []Val         `json:"old,omitempty"`
	Site      string        `json:"site,omitempty"`
	Frag      string        `json:"frag,omitempty"`
	Frame     []byte        `json:"frame,omitempty"`
}

// TableSchema is the serialized form of a schema.Table, mirroring the
// exec snapshot encoding so create records and checkpoints agree.
type TableSchema struct {
	Name    string         `json:"name"`
	Columns []ColumnSchema `json:"columns"`
	Key     []string       `json:"key,omitempty"`
}

// ColumnSchema is one column declaration.
type ColumnSchema struct {
	Name     string `json:"name"`
	Kind     string `json:"kind"`
	NotNull  bool   `json:"not_null,omitempty"`
	FullText bool   `json:"full_text,omitempty"`
	Taxonomy string `json:"taxonomy,omitempty"`
}

// Val is the kind-tagged spelling of one value.Value that Record.Row
// and Record.Old take. Its JSON tags are the version-0 value format,
// which the legacy readers of internal/journal and the exec snapshot
// share.
type Val struct {
	K string  `json:"k"`
	I int64   `json:"i,omitempty"`
	F float64 `json:"f,omitempty"`
	S string  `json:"s,omitempty"`
	B bool    `json:"b,omitempty"`
}

// EncodeVal spells a value.Value as a Val.
func EncodeVal(v value.Value) Val {
	switch v.Kind() {
	case value.KindNull:
		return Val{K: "null"}
	case value.KindBool:
		return Val{K: "bool", B: v.Bool()}
	case value.KindInt:
		return Val{K: "int", I: v.Int()}
	case value.KindFloat:
		return Val{K: "float", F: v.Float()}
	case value.KindString:
		return Val{K: "string", S: v.Str()}
	case value.KindMoney:
		amt, cur := v.Money()
		return Val{K: "money", I: amt, S: cur}
	case value.KindTime:
		return Val{K: "time", I: v.Time().UnixNano()}
	case value.KindDuration:
		d, sem := v.Duration()
		return Val{K: "duration", I: int64(d), S: string(sem)}
	default:
		return Val{K: "null"}
	}
}

// DecodeVal converts a Val back. Unknown kinds are a framing
// error: recovery must not guess at data it cannot read.
func DecodeVal(w Val) (value.Value, error) {
	switch w.K {
	case "null":
		return value.Null, nil
	case "bool":
		return value.NewBool(w.B), nil
	case "int":
		return value.NewInt(w.I), nil
	case "float":
		return value.NewFloat(w.F), nil
	case "string":
		return value.NewString(w.S), nil
	case "money":
		return value.NewMoney(w.I, w.S), nil
	case "time":
		return value.NewTime(time.Unix(0, w.I).UTC()), nil
	case "duration":
		return value.NewDuration(time.Duration(w.I), value.DurationSemantics(w.S)), nil
	default:
		return value.Null, fmt.Errorf("wal: unknown value kind %q", w.K)
	}
}

// EncodeRow spells a row of values as Vals.
func EncodeRow(row []value.Value) []Val {
	out := make([]Val, len(row))
	for i, v := range row {
		out[i] = EncodeVal(v)
	}
	return out
}

// DecodeRow converts a row of Vals back.
func DecodeRow(ws []Val) ([]value.Value, error) {
	out := make([]value.Value, len(ws))
	for i, w := range ws {
		v, err := DecodeVal(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// normalize moves row images spelled as Vals into Values/OldValues.
// An unknown Val kind is an error: recovery must not guess at data it
// cannot read.
func (r *Record) normalize() error {
	var err error
	if r.Values, r.Row, err = moveVals(r.Values, r.Row); err != nil {
		return err
	}
	r.OldValues, r.Old, err = moveVals(r.OldValues, r.Old)
	return err
}

func moveVals(values []value.Value, vals []Val) ([]value.Value, []Val, error) {
	if len(vals) == 0 {
		return values, nil, nil
	}
	if len(values) > 0 {
		return nil, nil, errors.New("wal: a row image spelled both as Values and as Vals")
	}
	row, err := DecodeRow(vals)
	return row, nil, err
}

// validate rejects records that cannot replay: on decode a damaged
// record is treated exactly like a CRC mismatch, so it truncates the
// tail instead of half-applying; on append it fails the statement, so
// no record reaches the log that replay would stop at.
func (r Record) validate() error {
	if kindCode(r.Kind) == 0 {
		return fmt.Errorf("wal: unknown record kind %q", r.Kind)
	}
	if r.Kind == KindCreate && r.Schema == nil {
		return fmt.Errorf("wal: create record without schema")
	}
	return nil
}

// Payload format versions: the first byte of every frame payload.
const (
	// formatJSON is version 0, the JSON records of earlier releases:
	// read, never written. Its first byte is the object's '{'.
	formatJSON = '{'
	// formatBinary is version 1, the layout of appendPayload.
	formatBinary = 1
)

// recordKinds maps a kind's code in the binary layout (its index) to
// its name; code 0 is unused so a zero byte never decodes.
var recordKinds = [...]string{1: KindCreate, KindIndex, KindPut, KindUpd, KindDel, KindTrunc, KindJFrame, KindJReset}

// kindCode returns k's code in the binary layout, 0 if unknown.
func kindCode(k string) byte {
	for i := 1; i < len(recordKinds); i++ {
		if recordKinds[i] == k {
			return byte(i)
		}
	}
	return 0
}

// Field-presence bits of the binary layout. A field is present when it
// is non-empty (Hash when true), the same rule as the JSON omitempty.
const (
	hasTable = 1 << iota
	hasSchema
	hasColumn
	hasHash
	hasValues
	hasOldValues
	hasSite
	hasFrag
	hasFrame
	hasAll = hasFrame<<1 - 1
)

// appendPayload appends the version-1 payload of a normalized r:
//
//	0x01 kind:byte lsn:uvarint present:uvarint
//	[table] [schema] [column] [values] [old values] [site] [frag] [frame]
//
// each bracketed field only when its presence bit is set; strings and
// the frame are length-prefixed, rows are value.AppendRow rows.
func appendPayload(dst []byte, r Record) []byte {
	var present uint64
	if r.Table != "" {
		present |= hasTable
	}
	if r.Schema != nil {
		present |= hasSchema
	}
	if r.Column != "" {
		present |= hasColumn
	}
	if r.Hash {
		present |= hasHash
	}
	if len(r.Values) > 0 {
		present |= hasValues
	}
	if len(r.OldValues) > 0 {
		present |= hasOldValues
	}
	if r.Site != "" {
		present |= hasSite
	}
	if r.Frag != "" {
		present |= hasFrag
	}
	if len(r.Frame) > 0 {
		present |= hasFrame
	}
	dst = append(dst, formatBinary, kindCode(r.Kind))
	dst = binary.AppendUvarint(dst, r.LSN)
	dst = binary.AppendUvarint(dst, present)
	if present&hasTable != 0 {
		dst = value.AppendString(dst, r.Table)
	}
	if present&hasSchema != 0 {
		dst = AppendSchema(dst, r.Schema)
	}
	if present&hasColumn != 0 {
		dst = value.AppendString(dst, r.Column)
	}
	if present&hasValues != 0 {
		dst = value.AppendRow(dst, r.Values)
	}
	if present&hasOldValues != 0 {
		dst = value.AppendRow(dst, r.OldValues)
	}
	if present&hasSite != 0 {
		dst = value.AppendString(dst, r.Site)
	}
	if present&hasFrag != 0 {
		dst = value.AppendString(dst, r.Frag)
	}
	if present&hasFrame != 0 {
		dst = value.AppendBytes(dst, r.Frame)
	}
	return dst
}

// AppendSchema appends ts in the binary layout create records and
// checkpoints share:
//
//	name ncols:uvarint (name kind flags:byte taxonomy)... nkey:uvarint key...
//
// flags bit 0 is NotNull, bit 1 FullText.
func AppendSchema(dst []byte, ts *TableSchema) []byte {
	dst = value.AppendString(dst, ts.Name)
	dst = binary.AppendUvarint(dst, uint64(len(ts.Columns)))
	for _, c := range ts.Columns {
		dst = value.AppendString(dst, c.Name)
		dst = value.AppendString(dst, c.Kind)
		var flags byte
		if c.NotNull {
			flags |= 1
		}
		if c.FullText {
			flags |= 2
		}
		dst = append(dst, flags)
		dst = value.AppendString(dst, c.Taxonomy)
	}
	dst = binary.AppendUvarint(dst, uint64(len(ts.Key)))
	for _, k := range ts.Key {
		dst = value.AppendString(dst, k)
	}
	return dst
}

// ReadSchema reads a schema written by AppendSchema; d's sticky error
// reports damage.
func ReadSchema(d *value.Decoder) *TableSchema {
	ts := &TableSchema{Name: d.Str()}
	// A column is at least four bytes: three empty strings and flags.
	if n := d.Count(4); n > 0 {
		ts.Columns = make([]ColumnSchema, n)
	}
	for i := range ts.Columns {
		c := &ts.Columns[i]
		c.Name, c.Kind = d.Str(), d.Str()
		flags := d.Byte()
		if flags > 3 {
			d.Corrupt()
		}
		c.NotNull, c.FullText = flags&1 != 0, flags&2 != 0
		c.Taxonomy = d.Str()
	}
	if n := d.Count(1); n > 0 {
		ts.Key = make([]string, n)
	}
	for i := range ts.Key {
		ts.Key[i] = d.Str()
	}
	return ts
}

// readPayload decodes a version-1 payload written by appendPayload.
func readPayload(payload []byte) (Record, error) {
	d := value.NewDecoder(payload)
	var r Record
	if d.Byte() != formatBinary {
		return Record{}, value.ErrCorrupt
	}
	if k := d.Byte(); int(k) < len(recordKinds) {
		r.Kind = recordKinds[k]
	}
	r.LSN = d.Uvarint()
	present := d.Uvarint()
	if present&^hasAll != 0 {
		d.Corrupt()
	}
	if present&hasTable != 0 {
		r.Table = d.Str()
	}
	if present&hasSchema != 0 {
		r.Schema = ReadSchema(d)
	}
	if present&hasColumn != 0 {
		r.Column = d.Str()
	}
	r.Hash = present&hasHash != 0
	if present&hasValues != 0 {
		r.Values = d.Row()
	}
	if present&hasOldValues != 0 {
		r.OldValues = d.Row()
	}
	if present&hasSite != 0 {
		r.Site = d.Str()
	}
	if present&hasFrag != 0 {
		r.Frag = d.Str()
	}
	if present&hasFrame != 0 {
		r.Frame = append([]byte(nil), d.Bytes()...)
	}
	if err := d.Finish(); err != nil {
		return Record{}, err
	}
	return r, nil
}

// errFormat reports a payload whose version byte is unknown.
var errFormat = errors.New("wal: unknown record format")

// decodePayload decodes one frame payload of either format version.
func decodePayload(payload []byte) (r Record, err error) {
	switch {
	case len(payload) > 0 && payload[0] == formatBinary:
		r, err = readPayload(payload)
	case len(payload) > 0 && payload[0] == formatJSON:
		if err = json.Unmarshal(payload, &r); err == nil {
			err = r.normalize()
		}
	default:
		err = errFormat
	}
	if err == nil {
		err = r.validate()
	}
	if err != nil {
		return Record{}, err
	}
	return r, nil
}

// appendFrame validates r and appends it to dst as one version-1
// frame. A record that readFrame would reject is refused here, before
// any byte of it is staged.
func appendFrame(dst []byte, r Record) ([]byte, error) {
	if err := r.normalize(); err != nil {
		return dst, err
	}
	if err := r.validate(); err != nil {
		return dst, err
	}
	start := len(dst)
	dst = append(dst, make([]byte, frameHeaderLen)...) // length and CRC, filled below
	dst = appendPayload(dst, r)
	payload := dst[start+frameHeaderLen:]
	if len(payload) > maxPayload {
		return dst[:start], fmt.Errorf("wal: record payload %d bytes exceeds cap %d", len(payload), maxPayload)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// readFrame parses one framed record at buf[off:]. ok=false means the
// bytes at off are not an intact, replayable record — the torn-tail
// signal that truncates everything from off on.
func readFrame(buf []byte, off int) (r Record, next int, ok bool) {
	if off+frameHeaderLen > len(buf) {
		return Record{}, off, false
	}
	n := int(binary.BigEndian.Uint32(buf[off : off+4]))
	sum := binary.BigEndian.Uint32(buf[off+4 : off+8])
	if n > maxPayload || off+frameHeaderLen+n > len(buf) {
		return Record{}, off, false
	}
	payload := buf[off+frameHeaderLen : off+frameHeaderLen+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return Record{}, off, false
	}
	r, err := decodePayload(payload)
	if err != nil {
		return Record{}, off, false
	}
	return r, off + frameHeaderLen + n, true
}

// ScanRecords parses every intact record from the start of buf,
// returning the records, the byte offset just past the last intact
// one, and the number of torn trailing bytes. Exposed for replay,
// tests and the fuzz target.
func ScanRecords(buf []byte) (recs []Record, good int, torn int) {
	off := 0
	for off < len(buf) {
		r, next, ok := readFrame(buf, off)
		if !ok {
			break
		}
		recs = append(recs, r)
		off = next
	}
	return recs, off, len(buf) - off
}
