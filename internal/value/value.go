// Package value implements the typed value system used throughout the
// content integration engine.
//
// Content integrated from many enterprises arrives with heterogeneous
// syntax and semantics (paper, Characteristic 2): prices in different
// currencies, "two day delivery" meaning different things to different
// vendors, free-text part names next to numeric quantities. The value
// package gives every cell a dynamic type with well-defined comparison,
// arithmetic and conversion semantics so that the transformation layer can
// normalize content and the query engine can evaluate predicates uniformly.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind identifies the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindMoney
	KindTime
	KindDuration
)

// String returns the SQL-facing name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindMoney:
		return "MONEY"
	case KindTime:
		return "TIMESTAMP"
	case KindDuration:
		return "DURATION"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// KindFromName parses a SQL type name into a Kind. It accepts the common
// aliases found in supplier feeds (VARCHAR, NUMERIC, ...).
func KindFromName(name string) (Kind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "DOUBLE", "REAL", "NUMERIC", "DECIMAL":
		return KindFloat, nil
	case "TEXT", "STRING", "VARCHAR", "CHAR", "CLOB":
		return KindString, nil
	case "MONEY", "PRICE":
		return KindMoney, nil
	case "TIME", "TIMESTAMP", "DATE", "DATETIME":
		return KindTime, nil
	case "DURATION", "INTERVAL":
		return KindDuration, nil
	default:
		return KindNull, fmt.Errorf("value: unknown type name %q", name)
	}
}

// Value is a dynamically typed cell value. The zero Value is NULL.
//
// Value is a small immutable struct passed by value; rows are []Value.
// It is four words (32 bytes on 64-bit platforms): a float keeps its
// IEEE-754 bits in n rather than a field of its own, because the scan
// kernel reads every stored cell of every row it visits, and a fifth
// word per cell is a fifth more memory to walk.
type Value struct {
	kind Kind
	// n holds ints, bools (0/1), money minor units, time as UnixNano,
	// durations in nanoseconds, and a float's math.Float64bits.
	n int64
	s string // strings; currency code for money; duration unit tag
}

// Null is the NULL value.
var Null = Value{}

// NewBool returns a boolean Value.
func NewBool(b bool) Value {
	var n int64
	if b {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// NewInt returns an integer Value.
func NewInt(i int64) Value { return Value{kind: KindInt, n: i} }

// NewFloat returns a floating point Value.
func NewFloat(f float64) Value { return Value{kind: KindFloat, n: int64(math.Float64bits(f))} }

// NewString returns a text Value.
func NewString(s string) Value { return Value{kind: KindString, s: s} }

// NewMoney returns a monetary Value. amountMinor is in minor units
// (e.g. cents) and currency is an ISO-4217 style code such as "USD".
func NewMoney(amountMinor int64, currency string) Value {
	return Value{kind: KindMoney, n: amountMinor, s: strings.ToUpper(currency)}
}

// NewTime returns a timestamp Value.
func NewTime(t time.Time) Value { return Value{kind: KindTime, n: t.UnixNano()} }

// NewDuration returns a duration Value with calendar-day semantics.
// The semantics tag records what the source meant by a "day"
// (see DurationSemantics); it matters when normalizing delivery promises.
func NewDuration(d time.Duration, sem DurationSemantics) Value {
	return Value{kind: KindDuration, n: int64(d), s: string(sem)}
}

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Bool returns the boolean payload. It panics if v is not a boolean;
// callers must check Kind first.
func (v Value) Bool() bool {
	v.mustBe(KindBool)
	return v.n != 0
}

// Int returns the integer payload.
func (v Value) Int() int64 {
	v.mustBe(KindInt)
	return v.n
}

// Float returns the float payload. Integers are widened.
func (v Value) Float() float64 {
	if v.kind == KindInt {
		return float64(v.n)
	}
	v.mustBe(KindFloat)
	return v.float()
}

// float decodes the float payload of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(uint64(v.n)) }

// Str returns the string payload.
func (v Value) Str() string {
	v.mustBe(KindString)
	return v.s
}

// Money returns the monetary payload in minor units and its currency code.
func (v Value) Money() (amountMinor int64, currency string) {
	v.mustBe(KindMoney)
	return v.n, v.s
}

// Time returns the timestamp payload.
func (v Value) Time() time.Time {
	v.mustBe(KindTime)
	return time.Unix(0, v.n).UTC()
}

// Duration returns the duration payload and its semantics tag.
func (v Value) Duration() (time.Duration, DurationSemantics) {
	v.mustBe(KindDuration)
	return time.Duration(v.n), DurationSemantics(v.s)
}

func (v Value) mustBe(k Kind) {
	if v.kind != k {
		panic(fmt.Sprintf("value: %s used as %s", v.kind, k))
	}
}

// String renders v for display. NULL renders as "NULL"; money renders with
// its currency code; durations render with their semantics tag.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindMoney:
		sign := ""
		n := v.n
		if n < 0 {
			sign = "-"
			n = -n
		}
		return fmt.Sprintf("%s%d.%02d %s", sign, n/100, n%100, v.s)
	case KindTime:
		return v.Time().Format(time.RFC3339)
	case KindDuration:
		d, sem := v.Duration()
		if sem == "" || sem == CalendarDays {
			return d.String()
		}
		return fmt.Sprintf("%s (%s)", d, sem)
	default:
		return fmt.Sprintf("Value(kind=%d)", v.kind)
	}
}

// Equal reports deep equality: both kind and payload must match. NULL
// equals NULL for the purposes of this method (unlike SQL comparison,
// see Compare).
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindFloat:
		a, b := v.float(), o.float()
		return a == b || (math.IsNaN(a) && math.IsNaN(b))
	default:
		return v.n == o.n && v.s == o.s
	}
}

// Comparable reports whether values of kinds a and b may be ordered
// against each other. Numeric kinds are mutually comparable; money is
// comparable to money only (possibly requiring currency conversion);
// everything else must match exactly.
func Comparable(a, b Kind) bool {
	if a == b {
		return true
	}
	num := func(k Kind) bool { return k == KindInt || k == KindFloat }
	return num(a) && num(b)
}

// ErrIncomparable is returned by Compare when the operand kinds cannot be
// ordered against each other.
var ErrIncomparable = fmt.Errorf("value: incomparable kinds")

// ErrCurrencyMismatch is returned when two money values in different
// currencies are compared or combined without a conversion step.
var ErrCurrencyMismatch = fmt.Errorf("value: currency mismatch")

// Compare orders v against o returning -1, 0 or +1. NULL orders before
// every non-NULL value (and equal to NULL), matching index ordering
// semantics. NaN equals NaN and orders after every other number.
// Comparing money in different currencies fails with
// ErrCurrencyMismatch: the caller must normalize first (the transformation
// layer does this).
func (v Value) Compare(o Value) (int, error) {
	if v.kind == KindNull || o.kind == KindNull {
		switch {
		case v.kind == o.kind:
			return 0, nil
		case v.kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if !Comparable(v.kind, o.kind) {
		return 0, fmt.Errorf("%w: %s vs %s", ErrIncomparable, v.kind, o.kind)
	}
	switch v.kind {
	case KindBool:
		return cmpInt64(v.n, o.n), nil
	case KindInt:
		if o.kind == KindFloat {
			return cmpFloat(float64(v.n), o.float()), nil
		}
		return cmpInt64(v.n, o.n), nil
	case KindFloat:
		if o.kind == KindInt {
			return cmpFloat(v.float(), float64(o.n)), nil
		}
		return cmpFloat(v.float(), o.float()), nil
	case KindString:
		return strings.Compare(v.s, o.s), nil
	case KindMoney:
		if v.s != o.s {
			return 0, fmt.Errorf("%w: %s vs %s", ErrCurrencyMismatch, v.s, o.s)
		}
		return cmpInt64(v.n, o.n), nil
	case KindTime, KindDuration:
		return cmpInt64(v.n, o.n), nil
	default:
		return 0, fmt.Errorf("%w: %s", ErrIncomparable, v.kind)
	}
}

// MustCompare is Compare for callers that have already verified
// comparability (e.g. index code on a typed column). It panics on error.
func (v Value) MustCompare(o Value) int {
	c, err := v.Compare(o)
	if err != nil {
		panic(err)
	}
	return c
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// cmpFloat is a total order on floats: NaN equals NaN, as Equal and
// AppendKey have it, and orders after every other number, +Inf
// included, so an index or a sort over a column holding NaN stays
// ordered.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	// Unordered: at least one side is NaN.
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	default:
		return -1
	}
}

// Truthy reports whether v counts as true in a WHERE clause. NULL is not
// truthy (SQL three-valued logic collapses unknown to false at the filter).
func (v Value) Truthy() bool {
	switch v.kind {
	case KindBool:
		return v.n != 0
	case KindInt:
		return v.n != 0
	case KindFloat:
		return v.float() != 0
	case KindString:
		return v.s != ""
	case KindNull:
		return false
	default:
		return true
	}
}
