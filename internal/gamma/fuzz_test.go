package gamma

import (
	"math"
	"testing"

	"repro/internal/moldable"
)

// FuzzGammaAmdahl: binary search vs linear scan for arbitrary Amdahl
// jobs and thresholds.
func FuzzGammaAmdahl(f *testing.F) {
	f.Add(1.0, 10.0, 16, 3.0)
	f.Add(0.0, 100.0, 1000, 0.5)
	f.Add(5.0, 0.0, 7, 5.0)
	f.Fuzz(func(t *testing.T, seq, par float64, m int, th float64) {
		if seq < 0 || par < 0 || seq+par <= 0 || seq > 1e9 || par > 1e9 ||
			m < 1 || m > 4096 || th <= 0 || th > 1e10 {
			t.Skip()
		}
		j := moldable.Amdahl{Seq: seq, Par: par}
		g, ok := Gamma(j, m, th)
		// linear reference
		wantG, wantOK := 0, false
		for p := 1; p <= m; p++ {
			if j.Time(p) <= th {
				wantG, wantOK = p, true
				break
			}
		}
		if ok != wantOK || (ok && g != wantG) {
			t.Fatalf("Gamma(seq=%v par=%v m=%d t=%v) = (%d,%v), linear (%d,%v)",
				seq, par, m, th, g, ok, wantG, wantOK)
		}
	})
}

// FuzzGammaClosedForm: Gamma and Search, strict and not, equal the
// reference bisection, return the oracle's own answers as their bracket
// and spend refSearch's oracle calls (checkBisect), for every
// closed-form family (family mod 5: Amdahl{a, b},
// Power{a, b}, PerfectSpeedup{a}, Comm{a, b}, Sequential{a}), any
// parameters, m in [1, 2^40], at the breakpoint t(p) moved by nudge
// ulps, or at the raw threshold th when raw is set. The seeds sit on the
// edges of the proven domain: α ∈ {0, 1, tiny}, zero Seq, Par and C,
// and parameters at 1e-30 and 1e30.
func FuzzGammaClosedForm(f *testing.F) {
	type seed struct {
		family uint8
		a, b   float64
	}
	const tiny = 1e-12
	for _, s := range []seed{
		{0, 1, 10}, {0, 0, 5}, {0, 5, 0}, {0, 0, 0}, {0, 1e-30, 1e30}, {0, 1e30, 1e-30},
		{1, 100, 0.7}, {1, 100, 0}, {1, 100, 1}, {1, 100, tiny}, {1, 1e-30, 0.5}, {1, 1e30, tiny},
		{2, 1, 0}, {2, 1e-30, 0}, {2, 1e30, 0},
		{3, 100, 0.01}, {3, 100, 0}, {3, 1e30, 1e-30}, {3, 1e-30, 1e30}, {3, 1 << 40, 1}, {3, 1 << 41, 1},
		{4, 1, 0}, {4, 1e-30, 0}, {4, 1e30, 0},
	} {
		for _, m := range []uint64{0, 15, 1 << 20, 1<<30 - 1, 1<<40 - 1} {
			f.Add(s.family, s.a, s.b, m, m/3, int8(0), false, 0.0)
			f.Add(s.family, s.a, s.b, m, m, int8(1), false, 0.0)
			f.Add(s.family, s.a, s.b, m, uint64(0), int8(-1), false, 0.0)
		}
		f.Add(s.family, s.a, s.b, uint64(1<<30), uint64(0), int8(0), true, 0.0)
		f.Add(s.family, s.a, s.b, uint64(1<<30), uint64(0), int8(0), true, math.Inf(1))
	}
	f.Fuzz(func(t *testing.T, family uint8, a, b float64, mRaw, pRaw uint64, nudge int8, raw bool, th float64) {
		var j moldable.Job
		switch family % 5 {
		case 0:
			j = moldable.Amdahl{Seq: a, Par: b}
		case 1:
			j = moldable.Power{W: a, Alpha: b}
		case 2:
			j = moldable.PerfectSpeedup{W: a}
		case 3:
			j = moldable.Comm{W: a, C: b}
		default:
			j = moldable.Sequential{T: a}
		}
		m := 1 + int(mRaw%(1<<40))
		if !raw {
			th = j.Time(1 + int(pRaw%uint64(m)))
			n, dir := int(nudge%4), math.Inf(1)
			if n < 0 {
				n, dir = -n, math.Inf(-1)
			}
			for ; n > 0; n-- {
				th = math.Nextafter(th, dir)
			}
		}
		checkBisect(t, j, m, th)
	})
}
