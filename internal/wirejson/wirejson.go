// Package wirejson is the one-pass JSON codec of the wire protocol: a
// scanner for the canonical subset of JSON that the protocol's own
// encoders write, and the string and float appenders those encoders
// share with encoding/json.
//
// The scanner reports no syntax or type error. On any input outside
// the subset it declines, and the caller reads the same bytes again
// with encoding/json. Every error text, and every lenient reading that
// encoding/json allows (case-folded keys, unknown keys, repeated keys,
// escapes, null), therefore stays encoding/json's own.
//
// The subset: exact-case keys the caller knows, each at most once;
// strings with no escape, control or non-ASCII byte; numbers in JSON
// grammar that strconv parses in range, with no fraction or exponent
// for integer fields; no null; and only whitespace after the value.
package wirejson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// Scanner reads one JSON value from a byte slice, front to back, and
// declines for good at the first byte outside the canonical subset.
// After a decline every method is a no-op that returns a zero value.
type Scanner struct {
	data []byte
	pos  int
	bad  bool
}

// NewScanner returns a scanner positioned at the start of data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// OK reports whether the scanner has not declined.
func (s *Scanner) OK() bool { return !s.bad }

// Decline gives up on the input: the caller met a key or shape the
// subset leaves to encoding/json.
func (s *Scanner) Decline() { s.bad = true }

// End reports whether the value was read in full with nothing but
// whitespace after it, and the scanner never declined.
func (s *Scanner) End() bool {
	s.space()
	return !s.bad && s.pos == len(s.data)
}

// whitespace has bit c set for each JSON whitespace byte c.
const whitespace uint64 = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

// space skips whitespace. The protocol's own encoders write none
// between tokens, so the usual case ends at the first compare: no byte
// above ' ' is whitespace.
func (s *Scanner) space() {
	for s.pos < len(s.data) && s.data[s.pos] <= ' ' && whitespace>>s.data[s.pos]&1 != 0 {
		s.pos++
	}
}

// peek returns the next byte after whitespace; 0 at the end of the
// input or after a decline.
func (s *Scanner) peek() byte {
	if s.bad {
		return 0
	}
	s.space()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// expect consumes c, or declines.
func (s *Scanner) expect(c byte) bool {
	if s.peek() != c {
		s.bad = true
		return false
	}
	s.pos++
	return true
}

// Pos returns the offset in the input of the next token, past any
// whitespace, or -1 after a decline.
func (s *Scanner) Pos() int {
	if s.peek(); s.bad {
		return -1
	}
	return s.pos
}

// Seek moves the scanner to offset pos, skipping what lies before it
// unread. The caller vouches for the skipped bytes: pos must be an
// offset where the scan could have arrived by reading them.
func (s *Scanner) Seek(pos int) {
	if !s.bad {
		s.pos = pos
	}
}

// Open consumes the '{' or '[' (c) that starts an object or array.
func (s *Scanner) Open(c byte) bool { return s.expect(c) }

// More steps through the members of an object or the elements of an
// array opened by Open; n counts the ones read so far. It consumes the
// comma before the next member and reports true, or consumes the
// closing bracket end and reports false. The idiom is
//
//	for n := 0; s.More('}', n); n++ { key := s.Key(); … }
func (s *Scanner) More(end byte, n int) bool {
	c := s.peek()
	if s.bad {
		return false
	}
	if c == end {
		s.pos++
		return false
	}
	if n > 0 {
		return s.expect(',')
	}
	return true
}

// Elems counts the elements ahead in an array of numbers just opened
// by Open('['), for sizing the slice that receives them. It only looks
// ahead, consuming nothing, and the count is a hint: one the scan then
// does not bear out costs capacity only.
func (s *Scanner) Elems() int {
	if s.peek() == ']' || s.bad {
		return 0
	}
	rest := s.data[s.pos:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return 1 + bytes.Count(rest, []byte{','})
}

// Key reads an object member's key and the colon after it. The key
// aliases the scanned bytes: compare it, do not keep it.
func (s *Scanner) Key() []byte {
	k := s.Str()
	s.expect(':')
	return k
}

// Str reads a string with no escape, control or non-ASCII byte and
// returns its contents, which alias the scanned bytes.
func (s *Scanner) Str() []byte {
	if !s.expect('"') {
		return nil
	}
	for i := s.pos; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			str := s.data[s.pos:i]
			s.pos = i + 1
			return str
		case c < 0x20 || c >= 0x80 || c == '\\':
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// Float reads a number as encoding/json reads it into a float64.
func (s *Scanner) Float() float64 {
	b, _ := s.number()
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return f
}

// Int reads an integer with no fraction or exponent.
func (s *Scanner) Int() int {
	b, integral := s.number()
	if s.bad || !integral {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseInt(string(b), 10, strconv.IntSize)
	if err != nil {
		s.bad = true
		return 0
	}
	return int(v)
}

// Uint reads a non-negative integer with no sign, fraction or exponent.
func (s *Scanner) Uint() uint64 {
	b, integral := s.number()
	if s.bad || !integral || b[0] == '-' {
		s.bad = true
		return 0
	}
	v, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return v
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch s.peek() {
	case 't':
		return s.literal("true")
	case 'f':
		s.literal("false")
		return false
	}
	s.bad = true
	return false
}

func (s *Scanner) literal(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		s.bad = true
		return false
	}
	s.pos += len(lit)
	return true
}

// number reads the text of a number in JSON grammar; integral reports
// that it has neither fraction nor exponent. What follows the number
// is the caller's to check: a stray byte fails the next More or End.
func (s *Scanner) number() (b []byte, integral bool) {
	if s.peek() == 0 {
		s.bad = true
		return nil, false
	}
	d, i := s.data, s.pos
	if d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		i = digits(d, i)
	default:
		s.bad = true
		return nil, false
	}
	integral = true
	if i < len(d) && d[i] == '.' {
		j := digits(d, i+1)
		if j == i+1 {
			s.bad = true
			return nil, false
		}
		i, integral = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		j := digits(d, i)
		if j == i {
			s.bad = true
			return nil, false
		}
		i, integral = j, false
	}
	b = d[s.pos:i]
	s.pos = i
	return b, integral
}

// digits returns the index of the first non-digit at or after i.
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// AppendString appends s quoted exactly as encoding/json writes it,
// and reports whether it could: false, with dst as it was, when
// encoding/json would escape some byte of s (a control byte, '"',
// '\\', the HTML-sensitive '<', '>' and '&', or any byte outside
// ASCII). Those strings are left to encoding/json.
func AppendString(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return dst, false
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"'), true
}

// AppendFloat appends f exactly as encoding/json writes a float64:
// shortest round-trip digits, 'e' form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent written e-7, not e-07. NaN and
// ±Inf get json.Marshal's error and leave dst as it was.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	// Below 2^53 floats are spaced at most 1 apart, so no shorter digit
	// string round-trips to an integral value: its shortest form is the
	// integer itself. −0 keeps its sign.
	if i := int64(f); float64(i) == f && -1<<53 < i && i < 1<<53 && (i != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(dst, i, 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
