package value

import (
	"encoding/binary"
	"errors"
)

// The binary encoding is the one disk format of a Value: WAL records,
// journal records and checkpoints all carry their cells in it. It is
// lossless, unlike AppendKey, which is equality-canonical: a float
// keeps its exact Float64bits (NaN payloads, ±Inf and −0 included), a
// currency or duration tag its exact bytes.
//
// Each value is one kind byte followed by a fixed layout per kind:
//
//	NULL      (nothing)
//	BOOLEAN   one byte, 0 or 1
//	INTEGER   zig-zag varint
//	FLOAT     8 bytes, little-endian Float64bits
//	TEXT      uvarint length, bytes
//	MONEY     zig-zag varint minor units, then the currency as TEXT
//	TIMESTAMP zig-zag varint UnixNano
//	DURATION  zig-zag varint nanoseconds, then the semantics tag as TEXT
//
// Strings and byte slices elsewhere in a record use the same uvarint
// length prefix (AppendString, Decoder.Str). Every varint is written in
// its shortest form, and the Decoder refuses any other, so a byte
// string that decodes re-encodes to itself.
//
// The same encoding is the /fetchstream wire format (package remote):
// a row chunk is rows written by AppendRow, back to back.

// ErrCorrupt is the error a Decoder reports once it has met bytes the
// binary encoding cannot have produced.
var ErrCorrupt = errors.New("value: corrupt binary encoding")

// AppendBinary appends the binary encoding of v to dst.
func AppendBinary(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.kind))
	switch v.kind {
	case KindBool:
		dst = append(dst, byte(v.n))
	case KindInt, KindTime:
		dst = binary.AppendVarint(dst, v.n)
	case KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.n))
	case KindString:
		dst = AppendString(dst, v.s)
	case KindMoney, KindDuration:
		dst = binary.AppendVarint(dst, v.n)
		dst = AppendString(dst, v.s)
	}
	return dst
}

// AppendString appends s with a uvarint length prefix.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendBytes appends b with a uvarint length prefix.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// AppendRow appends a uvarint value count, then each value.
func AppendRow(dst []byte, row []Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		dst = AppendBinary(dst, v)
	}
	return dst
}

// Decoder reads the binary encoding from a byte slice. Every read is
// bounds-checked: the first malformed or truncated field sets a sticky
// error, after which reads return zero values, so a caller decodes a
// whole record and checks Err (or Finish) once. No length read from
// the bytes allocates more than the bytes left could hold.
type Decoder struct {
	buf []byte
	// in, when non-empty, holds the same bytes as buf: strings are
	// sliced out of it instead of copied.
	in  string
	off int
	err error
}

// NewDecoder returns a decoder over b. Strings it returns are copies;
// Rest and Bytes alias b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// NewDecoderIn returns a decoder over b whose strings are substrings of
// s, which must hold b's bytes (typically s is string(b), made once).
// Decoding n strings then costs no allocation instead of n, and every
// string returned keeps all of s alive: use it where the values live
// no longer than their batch, never for a record whose buffer must not
// be pinned.
func NewDecoderIn(b []byte, s string) *Decoder {
	if len(s) != len(b) {
		panic("value: NewDecoderIn over a string of another length")
	}
	return &Decoder{buf: b, in: s}
}

// Err returns the first decoding error.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first decoding error, or ErrCorrupt if bytes are
// left over: a record must consume exactly its payload.
func (d *Decoder) Finish() error {
	if d.err == nil && d.off != len(d.buf) {
		d.Corrupt()
	}
	return d.err
}

// Rest returns the unread bytes (aliasing the input).
func (d *Decoder) Rest() []byte {
	if d.err != nil {
		return nil
	}
	return d.buf[d.off:]
}

// Corrupt marks the input corrupt, so a caller's own check of a
// decoded field (an unknown flag, say) joins the sticky error.
func (d *Decoder) Corrupt() { d.err = ErrCorrupt }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.Corrupt()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Uvarint reads an unsigned varint in its shortest form.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.buf) && d.buf[d.off] < 0x80 { // one byte: lengths, counts, small ints
		d.off++
		return uint64(d.buf[d.off-1])
	}
	x, n := binary.Uvarint(d.buf[d.off:])
	// A longer form ends in a zero byte: its last 7-bit group is empty.
	if n <= 0 || n > 1 && d.buf[d.off+n-1] == 0 {
		d.Corrupt()
		return 0
	}
	d.off += n
	return x
}

// Varint reads a zig-zag signed varint in its shortest form.
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads a uvarint element count and rejects one larger than the
// bytes left could encode at minSize bytes per element, so a corrupt
// count can never drive a large allocation.
func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if left := uint64(len(d.buf) - d.off); n > left || minSize > 1 && n > left/uint64(minSize) {
		d.Corrupt()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice, aliasing the input.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Str reads a length-prefixed string: a copy, or a substring of the
// decoder's string under NewDecoderIn.
func (d *Decoder) Str() string {
	b := d.Bytes()
	switch {
	case len(b) == 0:
		return ""
	case d.in != "":
		return d.in[d.off-len(b) : d.off]
	}
	return string(b)
}

// Value reads one value.
func (d *Decoder) Value() Value {
	k := Kind(d.Byte())
	if d.err != nil {
		return Null
	}
	v := Value{kind: k}
	switch k {
	case KindNull:
	case KindBool:
		b := d.Byte()
		if b > 1 {
			d.Corrupt()
		}
		v.n = int64(b)
	case KindInt, KindTime:
		v.n = d.Varint()
	case KindFloat:
		if len(d.buf)-d.off < 8 {
			d.Corrupt()
			break
		}
		v.n = int64(binary.LittleEndian.Uint64(d.buf[d.off:]))
		d.off += 8
	case KindString:
		v.s = d.Str()
	case KindMoney, KindDuration:
		v.n = d.Varint()
		v.s = d.Str()
	default:
		d.Corrupt()
	}
	if d.err != nil {
		return Null
	}
	return v
}

// Row reads a value count and that many values into a fresh slice.
func (d *Decoder) Row() []Value {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	return d.Values(make([]Value, n))
}

// Values fills dst with len(dst) values and returns it, or nil on error.
func (d *Decoder) Values(dst []Value) []Value {
	for i := range dst {
		dst[i] = d.Value()
	}
	if d.err != nil {
		return nil
	}
	return dst
}
