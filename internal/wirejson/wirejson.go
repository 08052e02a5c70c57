// Package wirejson is the repository's one-pass JSON reader: graph.DecodeFrom
// reads a graph with it, the /v1/synthesize envelope (graph, cluster,
// options, key) is read with it around the graph, and planwire reads a
// plan's trailer (ratios, segment assignment, cost) with it on every plan
// the client, the library and the daemon decode.
// It reads what encoding/json reads into a struct — any member order and
// whitespace, escaped strings and names, unknown members of any value
// (skipped), null as a member's whole value (read as the member's absence),
// ints across int64 and any JSON number as a float — and refuses three
// spellings encoding/json would take (RFC 8259 §4, RFC 7493 §2.3): a known
// member named twice, a name that differs from a known one only by
// encoding/json's case folding, and null as an element of a known array.
//
// Methods report success as a bool. The first failure is kept in Err and
// every later read fails at once, so a caller may check Err once at the end.
//
// AppendFloat is the writers' half: the graph's and the plan trailer's
// hand-written JSON spell a float64 with it, as encoding/json does.
package wirejson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit; it also bounds Skip's recursion.
const maxDepth = 10000

// Reader reads JSON values from Data, from I on. Each read leaves I past
// the space after what it read, so the next byte is at hand without a
// scan; Object and Array also skip the space before their value, so a
// document may start with space.
type Reader struct {
	Data  []byte
	I     int
	Err   error
	depth int
}

// Fail records err as the read's error unless one is already kept, and
// returns false.
func (r *Reader) Fail(err error) bool {
	if r.Err == nil {
		r.Err = err
	}
	return false
}

// syntax fails the read at I, naming the byte found as encoding/json does.
func (r *Reader) syntax(what string) bool {
	if r.I >= len(r.Data) {
		return r.Fail(errors.New("unexpected end of JSON input"))
	}
	return r.Fail(fmt.Errorf("invalid character %s %s", strconv.QuoteRune(rune(r.Data[r.I])), what))
}

// mismatch fails the read at a value that is not a want: it is read first,
// so a malformed one is reported as the syntax error it is.
func (r *Reader) mismatch(want string) bool {
	start := r.I
	if !r.Skip() {
		return false
	}
	return r.Fail(fmt.Errorf("cannot read %.20s as %s", bytes.TrimRight(r.Data[start:r.I], " \t\n\r"), want))
}

// space skips JSON whitespace.
func (r *Reader) space() {
	for ; r.I < len(r.Data); r.I++ {
		switch r.Data[r.I] {
		case ' ', '\t', '\n', '\r':
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end.
func (r *Reader) peek() byte {
	if r.I < len(r.Data) {
		return r.Data[r.I]
	}
	return 0
}

// next consumes c and the space after it if c comes next.
func (r *Reader) next(c byte) bool {
	if !r.byte(c) {
		return false
	}
	r.space()
	return true
}

// byte consumes c if it comes next.
func (r *Reader) byte(c byte) bool {
	if r.peek() != c {
		return false
	}
	r.I++
	return true
}

// literal consumes lit if it comes next.
func (r *Reader) literal(lit string) bool {
	if !bytes.HasPrefix(r.Data[r.I:], []byte(lit)) {
		return false
	}
	r.I += len(lit)
	r.space()
	return true
}

// Str reads a string. Its bytes alias Data unless it holds an escape or
// invalid UTF-8; then encoding/json unquotes the token, replacing invalid
// UTF-8 and lone surrogates with U+FFFD.
func (r *Reader) Str() ([]byte, bool) {
	if r.Err != nil {
		return nil, false
	}
	if r.peek() != '"' {
		return nil, r.mismatch("a string")
	}
	d, start, plain, ascii := r.Data, r.I, true, true
	for i := start + 1; i < len(d); i++ {
		switch c := d[i]; {
		case c == '"':
			r.I = i + 1
			r.space()
			if s := d[start+1 : i]; plain && (ascii || utf8.Valid(s)) {
				return s, true
			}
			var u string
			json.Unmarshal(d[start:i+1], &u) // a well-formed string token always unquotes
			return []byte(u), true
		case c == '\\':
			plain = false
			if i++; i == len(d) {
				break
			}
			switch d[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(d) || !isHex(d[i]) {
						r.I = i
						return nil, r.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				r.I = i
				return nil, r.syntax("in string escape code")
			}
		case c < ' ':
			r.I = i
			return nil, r.syntax("in string literal")
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	r.I = len(d)
	return nil, r.syntax("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// digits consumes a run of decimal digits and reports its length.
func (r *Reader) digits() int {
	start := r.I
	for r.I < len(r.Data) && '0' <= r.Data[r.I] && r.Data[r.I] <= '9' {
		r.I++
	}
	return r.I - start
}

// number reads a JSON number and returns its literal.
func (r *Reader) number(want string) []byte {
	if r.Err != nil {
		return nil
	}
	if c := r.peek(); c != '-' && (c < '0' || c > '9') {
		r.mismatch(want)
		return nil
	}
	start := r.I
	r.byte('-')
	ok := r.byte('0') || r.digits() > 0 // a digit after a leading zero is the caller's syntax error
	if ok && r.byte('.') {
		ok = r.digits() > 0
	}
	if ok && (r.byte('e') || r.byte('E')) {
		_ = r.byte('+') || r.byte('-')
		ok = r.digits() > 0
	}
	if !ok {
		r.syntax("in numeric literal")
		return nil
	}
	lit := r.Data[start:r.I]
	r.space()
	return lit
}

// Int reads an integer that fits an int; a fraction or exponent is refused
// as encoding/json refuses it for an int field.
func (r *Reader) Int() (int, bool) {
	// The usual int, at most 18 plain digits, is read in one pass.
	d, i := r.Data, r.I
	neg := i < len(d) && d[i] == '-'
	if neg {
		i++
	}
	v, start := int64(0), i
	for ; i < len(d) && '0' <= d[i] && d[i] <= '9' && i-start < 18; i++ {
		v = 10*v + int64(d[i]-'0')
	}
	if neg {
		v = -v
	}
	if n := i - start; r.Err == nil && n > 0 && (n == 1 || d[start] != '0') && int64(int(v)) == v &&
		(i == len(d) || d[i] != '.' && d[i] != 'e' && d[i] != 'E' && (d[i] < '0' || d[i] > '9')) {
		r.I = i
		r.space()
		return int(v), true
	}
	lit := r.number("an int")
	if lit == nil {
		return 0, false
	}
	v64, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(v64)) != v64 {
		return 0, r.Fail(fmt.Errorf("number %s is not an int", lit))
	}
	return int(v64), true
}

// Float reads any JSON number and parses it as encoding/json does; one out
// of float64's range is refused.
func (r *Reader) Float() (float64, bool) {
	lit := r.number("a number")
	if lit == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return 0, r.Fail(fmt.Errorf("number %s is out of range", lit))
	}
	return v, true
}

// open consumes the opening bracket c of a value that must be a want.
func (r *Reader) open(c byte, want string) bool {
	if r.Err != nil {
		return false
	}
	if r.space(); r.peek() != c {
		return r.mismatch(want)
	}
	if r.depth++; r.depth > maxDepth {
		return r.syntax("exceeded max depth")
	}
	return r.next(c)
}

// Array reads an array, calling elem for each element. A null element of
// an array named name is refused; name "" takes any element.
func (r *Reader) Array(name string, elem func() bool) bool {
	if !r.open('[', "an array") {
		return false
	}
	if !r.next(']') {
		for {
			if name != "" && r.peek() == 'n' && r.literal("null") {
				return r.Fail(fmt.Errorf("member %q holds a null element", name))
			}
			if !elem() {
				return false
			}
			if !r.next(',') {
				if r.next(']') {
					break
				}
				return r.syntax("after array element")
			}
		}
	}
	r.depth--
	return true
}

// Object reads an object. A member named in names (at most 64) is handed
// to member with its index, unless its value is null, which reads as the
// member's absence; any other member is skipped. A name of names given
// twice, or one that equals a name of names only under case folding, is
// refused.
func (r *Reader) Object(names []string, member func(k int) bool) bool {
	if !r.open('{', "an object") {
		return false
	}
	if !r.next('}') {
		var seen uint64
		for {
			if r.peek() != '"' {
				return r.syntax("looking for beginning of object key string")
			}
			name, ok := r.Str()
			if !ok {
				return false
			}
			if !r.next(':') {
				return r.syntax("after object key")
			}
			k := 0
			for k < len(names) && names[k] != string(name) {
				k++
			}
			switch {
			case k < len(names) && seen&(1<<k) != 0:
				return r.Fail(fmt.Errorf("member %q appears twice", name))
			case k < len(names):
				seen |= 1 << k
				if !(r.peek() == 'n' && r.literal("null")) && !member(k) {
					return false
				}
			default:
				for _, known := range names {
					if bytes.EqualFold(name, []byte(known)) {
						return r.Fail(fmt.Errorf("member %q differs from %q only in case", name, known))
					}
				}
				if !r.Skip() {
					return false
				}
			}
			if !r.next(',') {
				if r.next('}') {
					break
				}
				return r.syntax("after object key:value pair")
			}
		}
	}
	r.depth--
	return true
}

// Skip reads one value of any kind and discards it.
func (r *Reader) Skip() bool {
	if r.Err != nil {
		return false
	}
	switch c := r.peek(); {
	case c == '{':
		return r.Object(nil, nil)
	case c == '[':
		return r.Array("", r.Skip)
	case c == '"':
		_, ok := r.Str()
		return ok
	case c == '-' || '0' <= c && c <= '9':
		return r.number("") != nil
	case r.literal("true") || r.literal("false") || r.literal("null"):
		return true
	}
	return r.syntax("looking for beginning of value")
}

// AppendFloat appends v as encoding/json writes a float64: 'f' format, else
// 'e' below 1e-6 or from 1e21, with a one-digit negative exponent unpadded
// ("1e-7", not "1e-07"). It reports false, appending nothing, for NaN and
// ±Inf, which JSON cannot spell.
func AppendFloat(b []byte, v float64) ([]byte, bool) {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
