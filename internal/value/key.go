package value

import (
	"math"
	"strconv"
)

// AppendKey appends a stable, kind-tagged encoding of v to dst, suitable
// as a map key via string(dst). Two values encode identically iff they
// are Equal. It exists because key encoding sits on the hottest paths —
// primary keys, hash indexes, join and grouping keys — where
// fmt.Sprintf-based rendering dominates profiles.
func AppendKey(dst []byte, v Value) []byte {
	dst = append(dst, byte('0'+v.kind))
	dst = append(dst, '|')
	switch v.kind {
	case KindNull:
		// tag alone
	case KindBool:
		if v.n != 0 {
			dst = append(dst, '1')
		} else {
			dst = append(dst, '0')
		}
	case KindInt, KindTime:
		dst = strconv.AppendInt(dst, v.n, 10)
	case KindFloat:
		f := v.float()
		switch {
		case math.IsNaN(f):
			f = math.NaN() // canonical NaN so Equal values share a key
		case f == 0:
			f = 0 // and +0 for -0
		}
		dst = strconv.AppendUint(dst, math.Float64bits(f), 16)
	case KindString:
		dst = append(dst, v.s...)
	case KindMoney, KindDuration:
		dst = strconv.AppendInt(dst, v.n, 10)
		dst = append(dst, '|')
		dst = append(dst, v.s...)
	}
	return dst
}

// Key returns string(AppendKey(nil, v)).
func Key(v Value) string {
	return string(AppendKey(make([]byte, 0, 24), v))
}

// AppendRowKey encodes a row of values with separators.
func AppendRowKey(dst []byte, row []Value) []byte {
	for _, v := range row {
		dst = AppendKey(dst, v)
		dst = append(dst, 0)
	}
	return dst
}
