package moldable

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
)

// envelopeScan is the O(p) running-minimum scan that answered each
// envelope query before Envelope folded it into a table.
func envelopeScan(raw []Time, p int) Time {
	if p > len(raw) {
		p = len(raw)
	}
	t := raw[0]
	for _, r := range raw[1:p] {
		if r < t {
			t = r
		}
	}
	return t
}

func TestEnvelopeTable(t *testing.T) {
	e := Envelope([]Time{10, 6, 8, 3, 5})
	want := []Time{10, 6, 6, 3, 3}
	for p := 1; p <= len(want); p++ {
		if got := e.Time(p); got != want[p-1] {
			t.Errorf("Time(%d) = %v, want %v", p, got, want[p-1])
		}
	}
	if got := e.Time(99); got != 3 {
		t.Errorf("Time beyond table = %v, want 3", got)
	}
}

// TestEnvelopeMatchesScan: the folded table answers every p, past the
// end of raw included, exactly as the scan did on non-monotone input,
// NaN and signed zeros among it.
func TestEnvelopeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	cases := [][]Time{
		{7},
		{math.NaN(), 3, 1},
		{4, math.NaN(), 2, math.NaN()},
		{0, math.Copysign(0, -1), 0},
		{math.Copysign(0, -1), 0, -1},
		{math.Inf(1), 5, math.Inf(-1), 2},
	}
	for n := 1; n <= 64; n++ {
		raw := make([]Time, n)
		for i := range raw {
			raw[i] = Time(rng.IntN(20)) // repeats and rises as well as drops
		}
		cases = append(cases, raw)
	}
	for _, raw := range cases {
		e := Envelope(raw)
		for p := 1; p <= len(raw)+2; p++ {
			got, want := e.Time(p), envelopeScan(raw, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Envelope(%v).Time(%d) = %v, scan gives %v", raw, p, got, want)
			}
		}
	}
}

// A monotone-table-fed envelope must pass instance validation, which is
// how the benchmarks construct table-backed monotone oracles.
func TestEnvelopeTableMonotoneSource(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	raw := SmallTable(rng, 200, 100).T
	in := &Instance{M: 200, Jobs: []Job{Envelope(raw)}}
	if err := in.ValidateCtx(context.Background(), 0); err != nil {
		t.Fatalf("monotone-fed envelope failed validation: %v", err)
	}
}

// TestEnvelopeTableRoundTrip: a wire "envelope" job decodes to the
// table of its running minima, and that table survives a round trip.
func TestEnvelopeTableRoundTrip(t *testing.T) {
	in, err := UnmarshalInstance([]byte(`{"m":8,"jobs":[{"type":"envelope","times":[9,5,7,2]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	tb, ok := in.Jobs[0].(Table)
	if !ok {
		t.Fatalf("envelope decoded to %T, want Table", in.Jobs[0])
	}
	for p := 1; p <= 8; p++ {
		if got, want := tb.Time(p), envelopeScan([]Time{9, 5, 7, 2}, p); got != want {
			t.Fatalf("Time(%d) = %v, want %v", p, got, want)
		}
	}
	data, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"m":8,"jobs":[{"type":"table","times":[9,5,5,2]}]}`; string(data) != want {
		t.Errorf("encoded as %s, want %s", data, want)
	}
	back, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 8; p++ {
		if got, want := back.Jobs[0].Time(p), tb.Time(p); got != want {
			t.Fatalf("after round trip: Time(%d) = %v, want %v", p, got, want)
		}
	}
}
