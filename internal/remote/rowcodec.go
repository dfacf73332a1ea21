package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"cohera/internal/storage"
	"cohera/internal/value"
)

// The row codec. Rows cross /fetchstream, one chunk per line, as
//
//	{"rows":[[{"k":"string","s":"P0000001"},{"k":"int","i":7},...],...]}
//
// one kind-tagged object per cell, members in k, i, f, s, b order and
// each of i, f, s, b omitted when zero. The encoder writes exactly the
// bytes encoding/json wrote for that shape — HTML-safe string escapes,
// U+2028/9 escaped, invalid UTF-8 as \ufffd, ES6 float formatting — so
// peers on either side of this codec interoperate. The one extension is
// non-finite floats, which encoding/json cannot write: they travel as
// the strings "NaN", "+Inf" and "-Inf" in f, which an older decoder
// rejects loudly instead of reading as 0.
//
// The decoder parses the rows member by hand into one []value.Value per
// chunk, each row a cap-limited slice of it, so a caller's append copies
// instead of overwriting the next row. Every other member of a line
// (the pushdown ack, a mid-stream error, the eof terminator, anything a
// newer peer adds) is handed to encoding/json, which skips what it does
// not know.

const (
	rowsOpen  = `{"rows":[`
	rowsClose = `]}`
)

// appendRow appends one row as a JSON array of kind-tagged cells.
func appendRow(b []byte, r storage.Row) []byte {
	b = append(b, '[')
	for j, v := range r {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendCell(b, v)
	}
	return append(b, ']')
}

func appendCell(b []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindBool:
		b = append(b, `{"k":"bool"`...)
		if v.Bool() {
			b = append(b, `,"b":true`...)
		}
	case value.KindInt:
		b = appendIntMember(append(b, `{"k":"int"`...), v.Int())
	case value.KindFloat:
		b = append(b, `{"k":"float"`...)
		if f := v.Float(); f != 0 {
			b = appendFloat(append(b, `,"f":`...), f)
		}
	case value.KindString:
		b = appendStrMember(append(b, `{"k":"string"`...), v.Str())
	case value.KindMoney:
		amt, cur := v.Money()
		b = appendStrMember(appendIntMember(append(b, `{"k":"money"`...), amt), cur)
	case value.KindTime:
		b = appendIntMember(append(b, `{"k":"time"`...), v.Time().UnixNano())
	case value.KindDuration:
		d, sem := v.Duration()
		b = appendStrMember(appendIntMember(append(b, `{"k":"duration"`...), int64(d)), string(sem))
	default:
		b = append(b, `{"k":"null"`...)
	}
	return append(b, '}')
}

func appendIntMember(b []byte, i int64) []byte {
	if i == 0 {
		return b
	}
	return strconv.AppendInt(append(b, `,"i":`...), i, 10)
}

func appendStrMember(b []byte, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, `,"s":`...), s)
}

// appendFloat formats f the way encoding/json does (ES6 number to
// string: %f unless the exponent is extreme, and e-07 cleaned to e-7),
// with the non-finite values as strings.
func appendFloat(b []byte, f float64) []byte {
	switch {
	case math.IsNaN(f):
		return append(b, `"NaN"`...)
	case math.IsInf(f, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(f, -1):
		return append(b, `"-Inf"`...)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// htmlSafe[c] reports whether byte c goes into a JSON string verbatim
// under encoding/json's default, HTML-safe escaping; bytes from 0x80 up
// start a rune and are checked as one.
var htmlSafe = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string, escaping exactly as
// encoding/json does.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if htmlSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// syntaxError is a line that is not the JSON the wire carries — the one
// decode failure a stream's final line may owe to a cut connection.
// Well-formed lines whose cells do not fit (an unknown kind tag, a row
// of the wrong width) fail with plain errors instead.
type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("remote: malformed chunk at byte %d: %s", e.off, e.msg)
}

// rowDecoder parses chunk lines. Its zero value is ready; it keeps
// scratch space between lines, so one decoder serves one stream.
type rowDecoder struct {
	// cells collects a line's cells before they are copied into the
	// chunk's own backing array.
	cells []value.Value
	// last holds, per column, the last string decoded there: a column
	// that repeats a value (a currency, a supplier) reuses one string.
	last []string
	p    lineParser
}

// decode parses one line whose rows must each have width cells. The
// rows share one exact-size backing array; meta carries every other
// member.
func (d *rowDecoder) decode(line []byte, width int) (rows []storage.Row, meta streamChunk, err error) {
	p := &d.p
	*p = lineParser{b: line}
	d.cells = d.cells[:0]
	if len(d.last) < width {
		d.last = make([]string, width)
	}
	var other []byte // members besides rows, as "key":value pairs
	nrows, sawRows := 0, false
	p.ws()
	if !p.eat('{') {
		return nil, meta, p.fail("want an object")
	}
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			keyAt := p.i
			simple, ok := p.str()
			if !ok {
				return nil, meta, p.fail("bad member name")
			}
			key := line[keyAt:p.i]
			p.ws()
			if !p.eat(':') {
				return nil, meta, p.fail("want ':'")
			}
			p.ws()
			if simple && string(key) == `"rows"` {
				if sawRows {
					return nil, meta, p.fail("duplicate rows")
				}
				sawRows = true
				if nrows, err = d.rowArray(width); err != nil {
					return nil, meta, err
				}
			} else {
				// encoding/json matches member names case-insensitively;
				// a name that would alias rows is refused, not guessed at.
				var name string
				if simple {
					name = string(key[1 : len(key)-1])
				} else if json.Unmarshal(key, &name) != nil {
					return nil, meta, p.fail("bad member name")
				}
				if strings.EqualFold(name, "rows") {
					return nil, meta, p.fail("ambiguous rows member")
				}
				if !p.skip() {
					return nil, meta, p.fail("bad member value")
				}
				if other != nil {
					other = append(other, ',')
				}
				other = append(other, line[keyAt:p.i]...)
			}
			p.ws()
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return nil, meta, p.fail("want ',' or '}'")
			}
		}
	}
	p.ws()
	if p.i != len(line) {
		return nil, meta, p.fail("trailing bytes")
	}
	if other != nil {
		obj := append(append([]byte{'{'}, other...), '}')
		if err := json.Unmarshal(obj, &meta); err != nil {
			return nil, meta, &syntaxError{off: 0, msg: err.Error()}
		}
	}
	if nrows == 0 {
		return nil, meta, nil
	}
	backing := make([]value.Value, len(d.cells))
	copy(backing, d.cells)
	rows = make([]storage.Row, nrows)
	for i := range rows {
		lo := i * width
		rows[i] = backing[lo : lo+width : lo+width]
	}
	return rows, meta, nil
}

// rowArray parses the rows member's value into d.cells and returns the
// row count.
func (d *rowDecoder) rowArray(width int) (int, error) {
	p := &d.p
	if p.lit("null") {
		return 0, nil
	}
	if !p.eat('[') {
		return 0, p.fail("rows: want an array")
	}
	p.ws()
	if p.eat(']') {
		return 0, nil
	}
	for n := 1; ; n++ {
		p.ws()
		if !p.eat('[') {
			return 0, p.fail("row: want an array")
		}
		first := len(d.cells)
		p.ws()
		if !p.eat(']') {
			for col := 0; ; col++ {
				p.ws()
				v, err := d.cell(col)
				if err != nil {
					return 0, err
				}
				d.cells = append(d.cells, v)
				p.ws()
				if p.eat(']') {
					break
				}
				if !p.eat(',') {
					return 0, p.fail("row: want ',' or ']'")
				}
			}
		}
		// A row of the wrong width is wire corruption; letting it through
		// would index-panic in the filter re-check or feed the evaluator
		// garbage.
		if got := len(d.cells) - first; got != width {
			return 0, fmt.Errorf("remote: stream row has %d cells, want %d", got, width)
		}
		p.ws()
		if p.eat(']') {
			return n, nil
		}
		if !p.eat(',') {
			return 0, p.fail("rows: want ',' or ']'")
		}
	}
}

// cell parses one {"k":…} object. Members may come in any order and a
// repeated member's last value wins, as with encoding/json; members the
// kind does not use are validated and ignored.
func (d *rowDecoder) cell(col int) (value.Value, error) {
	p := &d.p
	if !p.eat('{') {
		return value.Null, p.fail("cell: want an object")
	}
	var (
		kind, s []byte
		sSimple = true
		i       int64
		f       float64
		b       bool
	)
	p.ws()
	if !p.eat('}') {
		for {
			p.ws()
			keyAt := p.i
			if simple, ok := p.str(); !ok || !simple || p.i-keyAt != 3 {
				return value.Null, p.fail("cell: bad member name")
			}
			key := p.b[keyAt+1]
			p.ws()
			if !p.eat(':') {
				return value.Null, p.fail("cell: want ':'")
			}
			p.ws()
			at := p.i
			ok := true
			switch key {
			case 'k':
				var simple bool
				if simple, ok = p.str(); ok && simple {
					kind = p.b[at+1 : p.i-1]
				}
				ok = ok && simple
			case 'i':
				i, ok = p.int64()
			case 'f':
				f, ok = p.float()
			case 's':
				sSimple, ok = p.str()
				s = p.b[at:p.i]
			case 'b':
				if b = p.lit("true"); !b {
					ok = p.lit("false")
				}
			default:
				ok = false
			}
			if !ok {
				return value.Null, p.fail("cell: bad " + string(key) + " member")
			}
			p.ws()
			if p.eat('}') {
				break
			}
			if !p.eat(',') {
				return value.Null, p.fail("cell: want ',' or '}'")
			}
		}
	}
	switch string(kind) {
	case "null":
		return value.Null, nil
	case "bool":
		return value.NewBool(b), nil
	case "int":
		return value.NewInt(i), nil
	case "float":
		return value.NewFloat(f), nil
	case "time":
		return value.NewTime(time.Unix(0, i).UTC()), nil
	case "string", "money", "duration":
		str, err := d.text(col, s, sSimple)
		if err != nil {
			return value.Null, err
		}
		switch string(kind) {
		case "string":
			return value.NewString(str), nil
		case "money":
			return value.NewMoney(i, str), nil
		default:
			return value.NewDuration(time.Duration(i), value.DurationSemantics(str)), nil
		}
	default:
		return value.Null, fmt.Errorf("remote: unknown value kind %q", kind)
	}
}

// text turns a validated string token (quotes included; nil when the
// member was absent) into a string. Plain ASCII is copied, reusing the
// column's last string when it repeats; a token with escapes or
// non-ASCII bytes goes to encoding/json, which owns the unescaping and
// U+FFFD rules.
func (d *rowDecoder) text(col int, tok []byte, simple bool) (string, error) {
	if len(tok) == 0 {
		return "", nil
	}
	if !simple {
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return "", &syntaxError{off: d.p.i, msg: err.Error()}
		}
		return s, nil
	}
	raw := tok[1 : len(tok)-1]
	if col >= len(d.last) {
		return string(raw), nil
	}
	if string(raw) != d.last[col] {
		d.last[col] = string(raw)
	}
	return d.last[col], nil
}

// lineParser is a cursor over one line. Its scanners validate what
// they consume as strictly as encoding/json, so a line the decoder
// accepts is one encoding/json accepts too.
type lineParser struct {
	b []byte
	i int
}

func (p *lineParser) fail(msg string) error { return &syntaxError{off: p.i, msg: msg} }

func (p *lineParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *lineParser) eat(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *lineParser) lit(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// str consumes a string token. simple reports printable ASCII with no
// escapes — a token whose bytes between the quotes are its value.
func (p *lineParser) str() (simple, ok bool) {
	b, i := p.b, p.i
	if i >= len(b) || b[i] != '"' {
		return false, false
	}
	i++
	simple = true
	for {
		for i < len(b) && plain[b[i]] {
			i++
		}
		if i >= len(b) {
			return false, false
		}
		c := b[i]
		i++
		switch {
		case c == '"':
			p.i = i
			return simple, true
		case c < ' ':
			return false, false
		case c >= utf8.RuneSelf:
			simple = false
		default: // a backslash
			simple = false
			if i >= len(b) {
				return false, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				if len(b)-i < 5 {
					return false, false
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return false, false
					}
				}
				i += 5
			default:
				return false, false
			}
		}
	}
}

// plain[c] reports a byte a string token carries as itself: printable
// ASCII other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// number consumes a JSON number token; isInt reports one with no
// fraction or exponent.
func (p *lineParser) number() (isInt, ok bool) {
	p.eat('-')
	switch {
	case p.eat('0'):
	case p.i < len(p.b) && '1' <= p.b[p.i] && p.b[p.i] <= '9':
		p.digits()
	default:
		return false, false
	}
	isInt = true
	if p.eat('.') {
		isInt = false
		if p.digits() == 0 {
			return false, false
		}
	}
	if p.eat('e') || p.eat('E') {
		isInt = false
		if !p.eat('+') {
			p.eat('-')
		}
		if p.digits() == 0 {
			return false, false
		}
	}
	return isInt, true
}

func (p *lineParser) digits() int {
	at := p.i
	for p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9' {
		p.i++
	}
	return p.i - at
}

// int64 consumes an integer that fits int64, the only numbers
// encoding/json stores into one.
func (p *lineParser) int64() (int64, bool) {
	at := p.i
	isInt, ok := p.number()
	if !ok || !isInt {
		return 0, false
	}
	tok := p.b[at:p.i]
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var u uint64
	for _, c := range tok {
		d := uint64(c - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, false
		}
		u = u*10 + d
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u <= math.MaxInt64:
		return int64(u), true
	}
	return 0, false
}

// float consumes a number, or one of the non-finite spellings.
func (p *lineParser) float() (float64, bool) {
	switch {
	case p.lit(`"NaN"`):
		return math.NaN(), true
	case p.lit(`"+Inf"`):
		return math.Inf(1), true
	case p.lit(`"-Inf"`):
		return math.Inf(-1), true
	}
	at := p.i
	if _, ok := p.number(); !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(p.b[at:p.i]), 64)
	return f, err == nil
}

// skip consumes one JSON value of a member other than rows; encoding/json
// finds where it ends and validates it.
func (p *lineParser) skip() bool {
	dec := json.NewDecoder(bytes.NewReader(p.b[p.i:]))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	p.i += int(dec.InputOffset())
	return true
}
