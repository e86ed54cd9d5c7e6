package wirejson

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// TestAppendFloatMatchesMarshal pins AppendFloat to json.Marshal on the
// edges of its format switch and on random bit patterns.
func TestAppendFloatMatchesMarshal(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7, 1.5e-7, 1e-10, 1e-100,
		1e20, 1e21, 999999999999999900000, 1.2345e22, 5e-324, -5e-324, 2.2250738585072014e-308,
		math.MaxFloat64, -math.MaxFloat64, 123456789.125, 1 << 53, 1<<53 + 2,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 20000 {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	// Integral values take a shortcut below 2^53; walk its edges.
	vals = append(vals, 1<<53-1, 1<<53, 1<<53+2, -(1<<53 - 1), -(1 << 53), 1<<63, -(1 << 63), 1e15, 1e16, 4503599627370496, 4503599627370497)
	for range 20000 {
		i := rng.Int64N(1<<54) - 1<<53
		vals = append(vals, float64(i), float64(i>>rng.IntN(53)))
	}
	for _, f := range vals {
		want, werr := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("%v: error %v, json.Marshal error %v", f, err, werr)
		}
		if err != nil {
			if string(got) != "x" {
				t.Fatalf("%v: dst %q after error", f, got)
			}
			continue
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("%v: AppendFloat %s, json.Marshal %s", f, got[1:], want)
		}
	}
}

// TestScannerSubset walks the subset's boundary: the scanner reads the
// canonical forms and declines everything else.
func TestScannerSubset(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{`{"a":[1,-0,2.5e-3,1E+2],"b":"x y","c":true,"d":false,"e":{}}`, true},
		{` { "a" : [ ] , "e" : { } } ` + "\n\t\r", true},
		{`{"a":[1,]}`, false},
		{`{,"a":[]}`, false},
		{`{"a":[] "e":{}}`, false},
		{`{"a":[01]}`, false},
		{`{"a":[1.]}`, false},
		{`{"a":[.5]}`, false},
		{`{"a":[+1]}`, false},
		{`{"a":[1e]}`, false},
		{`{"a":[-]}`, false},
		{`{"a":[1e400]}`, false},
		{`{"a":[NaN]}`, false},
		{`{"a":[0x10]}`, false},
		{`{"b":"\u0041"}`, false},
		{"{\"b\":\"\t\"}", false},
		{"{\"b\":\"é\"}", false},
		{`{"b":"x}`, false},
		{`{"c":null}`, false},
		{`{"c":tru}`, false},
		{`{"c":truex}`, false},
		{`{"e":{}}x`, false},
		{`{"e":{}}{}`, false},
		{`{"e":{}`, false},
		{``, false},
	} {
		s := NewScanner([]byte(c.in))
		readValue(&s)
		if got := s.End(); got != c.ok {
			t.Errorf("%q: accepted %v, want %v", c.in, got, c.ok)
		}
	}
}

// readValue reads the keys of TestScannerSubset's schema.
func readValue(s *Scanner) {
	if !s.Open('{') {
		return
	}
	for n := 0; s.More('}', n); n++ {
		switch string(s.Key()) {
		case "a":
			if s.Open('[') {
				for i := 0; s.More(']', i); i++ {
					s.Float()
				}
			}
		case "b":
			s.Str()
		case "c", "d":
			s.Bool()
		case "e":
			if s.Open('{') {
				s.More('}', 0)
			}
		default:
			s.Decline()
		}
	}
}

// TestAppendStringMatchesMarshal pins AppendString to json.Marshal:
// every byte on its own and amid plain text is either written as
// encoding/json writes it or left to encoding/json, which is declined
// for an ASCII string only when encoding/json escapes it.
func TestAppendStringMatchesMarshal(t *testing.T) {
	strs := []string{"", "linear", "t-12", "a b", "\x7f", "é", " ", "<", "a&b", `"`, `\`, "\x00", "\t"}
	for c := range 256 {
		strs = append(strs, string(rune(c)), "x"+string([]byte{byte(c)})+"y")
	}
	for _, s := range strs {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := AppendString([]byte("x"), s)
		if !ok {
			if string(got) != "x" {
				t.Fatalf("%q: dst %q after declining", s, got)
			}
			if string(want) == `"`+s+`"` && strings.IndexFunc(s, func(r rune) bool { return r >= 0x80 }) < 0 {
				t.Errorf("%q: declined an ASCII string encoding/json writes verbatim", s)
			}
			continue
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("%q: AppendString %s, json.Marshal %s", s, got[1:], want)
		}
	}
}
