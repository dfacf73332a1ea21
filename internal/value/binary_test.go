package value

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"
	"time"
)

// binaryCases covers every kind and the float bit patterns a text or
// equality-canonical encoding would lose.
func binaryCases() []Value {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef) // NaN with a payload
	return []Value{
		Null, NewBool(false), NewBool(true),
		NewInt(0), NewInt(-1), NewInt(math.MaxInt64), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(math.Copysign(0, -1)), NewFloat(1.5),
		NewFloat(math.Inf(1)), NewFloat(math.Inf(-1)), NewFloat(nan),
		NewFloat(math.SmallestNonzeroFloat64),
		NewString(""), NewString("cordless drill"), NewString("Ünïcödé\x00"),
		NewMoney(9950, "USD"), NewMoney(-1, ""),
		NewTime(time.Date(2001, 5, 21, 9, 30, 0, 7, time.UTC)), NewTime(time.Unix(0, math.MinInt64)),
		NewDuration(48*time.Hour, BusinessDays), NewDuration(-time.Nanosecond, ""),
	}
}

// identical reports bit-for-bit equality, which Equal is not (NaN
// payloads and the sign of zero): a float's bits live in n.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.n == b.n && a.s == b.s
}

// TestBinaryGolden pins the disk format byte for byte: WAL records,
// journal frames and checkpoints written by any earlier build must
// decode, so no change to Value's layout may move these bytes.
func TestBinaryGolden(t *testing.T) {
	for _, c := range []struct {
		v   Value
		hex string
	}{
		{Null, "00"},
		{NewBool(true), "0101"},
		{NewInt(-1), "0201"},
		{NewInt(300), "02d804"},
		{NewFloat(1.5), "03000000000000f83f"},
		{NewFloat(math.Float64frombits(0x7ff8_0000_dead_beef)), "03efbeadde0000f87f"},
		{NewFloat(math.Inf(1)), "03000000000000f07f"},
		{NewFloat(math.Inf(-1)), "03000000000000f0ff"},
		{NewFloat(math.Copysign(0, -1)), "030000000000000080"},
		{NewString("drill"), "04056472696c6c"},
		{NewMoney(9950, "USD"), "05bc9b0103555344"},
		{NewTime(time.Date(2001, 5, 21, 9, 30, 0, 7, time.UTC)), "068ec097f4aae4debe1b"},
		{NewDuration(48*time.Hour, BusinessDays), "078080f0a9a4ca4e08627573696e657373"},
	} {
		if got := hex.EncodeToString(AppendBinary(nil, c.v)); got != c.hex {
			t.Errorf("%v (%s) encodes as %s, want %s", c.v, c.v.Kind(), got, c.hex)
		}
		b, _ := hex.DecodeString(c.hex)
		d := NewDecoder(b)
		if got := d.Value(); d.Finish() != nil || !identical(got, c.v) {
			t.Errorf("%s decodes as %v (%s), err %v; want %v", c.hex, got, got.Kind(), d.Err(), c.v)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	cases := binaryCases()
	for _, v := range cases {
		enc := AppendBinary(nil, v)
		d := NewDecoder(enc)
		got := d.Value()
		if err := d.Finish(); err != nil || !identical(got, v) {
			t.Errorf("%v (%s): decoded %v, err %v", v, v.Kind(), got, err)
		}
	}
	row := AppendRow([]byte("prefix"), cases)
	d := NewDecoder(row[len("prefix"):])
	back := d.Row()
	if err := d.Finish(); err != nil || len(back) != len(cases) {
		t.Fatalf("row: %d values, err %v", len(back), err)
	}
	for i := range cases {
		if !identical(back[i], cases[i]) {
			t.Errorf("row cell %d: %v, want %v", i, back[i], cases[i])
		}
	}
}

// Every strict prefix of a valid encoding is an error, never a panic
// or a short value read as whole.
func TestBinaryTruncationFails(t *testing.T) {
	enc := AppendRow(nil, binaryCases())
	for n := 0; n < len(enc); n++ {
		d := NewDecoder(enc[:n])
		d.Row()
		if d.Finish() == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(enc))
		}
	}
}

func TestBinaryRejectsBadBytes(t *testing.T) {
	for name, b := range map[string][]byte{
		"unknown kind":  {byte(KindDuration) + 1},
		"bool byte 2":   {byte(KindBool), 2},
		"short float":   {byte(KindFloat), 1, 2, 3},
		"long string":   {byte(KindString), 5, 'a'},
		"varint runs":   append([]byte{byte(KindInt)}, bytes.Repeat([]byte{0xff}, 11)...),
		"long varint":   {byte(KindInt), 0x82, 0x00},
		"long length":   {byte(KindString), 0x81, 0x00, 'a'},
		"trailing byte": {byte(KindNull), 0},
	} {
		d := NewDecoder(b)
		d.Value()
		if d.Finish() == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
	}
	// A count larger than the bytes left fails before any allocation.
	d := NewDecoder([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, byte(KindNull)})
	if row := d.Row(); row != nil || d.Err() == nil {
		t.Fatalf("oversized count: %d values, err %v", len(row), d.Err())
	}
	// Errors are sticky: nothing after the first failure reads.
	d = NewDecoder([]byte{byte(KindBool), 7, byte(KindInt), 2})
	d.Value()
	if v := d.Value(); !v.IsNull() || d.Err() == nil {
		t.Fatalf("read %v after a failure", v)
	}
}

// TestDecoderInSlicesStrings: under NewDecoderIn the values read back
// as NewDecoder's copies do, and reading them allocates nothing: every
// string is a substring of the one string given.
func TestDecoderInSlicesStrings(t *testing.T) {
	cases := binaryCases()
	enc := AppendRow(nil, cases)
	s := string(enc)
	d := NewDecoderIn(enc, s)
	back := d.Row()
	if err := d.Finish(); err != nil || len(back) != len(cases) {
		t.Fatalf("row: %d values, err %v", len(back), err)
	}
	for i, v := range back {
		if !identical(v, cases[i]) {
			t.Errorf("cell %d: %v, want %v", i, v, cases[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() {
		d := NewDecoderIn(enc, s)
		d.Count(1)
		for range cases {
			d.Value()
		}
	}); n != 0 {
		t.Errorf("decoding %d values in place allocated %v times", len(cases), n)
	}
}
