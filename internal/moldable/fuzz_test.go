package moldable

import (
	"math"
	"testing"
)

// FuzzMonotoneTable: MonotoneTable must yield a monotone job for ANY
// positive finite input times.
func FuzzMonotoneTable(f *testing.F) {
	f.Add(1.0, 2.0, 3.0, 4.0)
	f.Add(10.0, 1.0, 10.0, 1.0)
	f.Add(5.0, 5.0, 5.0, 5.0)
	f.Add(0.001, 1e9, 0.5, 42.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		for _, v := range []float64{a, b, c, d} {
			if !(v > 0) || math.IsInf(v, 0) || v > 1e12 {
				t.Skip()
			}
		}
		tb := MonotoneTable([]Time{a, b, c, d})
		if err := CheckMonotone(tb, 4, 0); err != nil {
			t.Fatalf("MonotoneTable(%v %v %v %v) not monotone: %v", a, b, c, d, err)
		}
		// the first entry must be preserved exactly
		if tb.T[0] != a {
			t.Fatalf("t(1) changed: %v -> %v", a, tb.T[0])
		}
	})
}

// FuzzCommMinimizer: the closed-form Comm.Time must equal the brute
// force min over q for arbitrary parameters.
func FuzzCommMinimizer(f *testing.F) {
	f.Add(10.0, 0.1, 8)
	f.Add(1000.0, 0.0, 100)
	f.Add(1.0, 5.0, 3)
	f.Fuzz(func(t *testing.T, w, c float64, p int) {
		if !(w > 0) || w > 1e9 || c < 0 || c > 1e6 || p < 1 || p > 2000 {
			t.Skip()
		}
		j := Comm{W: w, C: c}
		got := j.Time(p)
		want := math.Inf(1)
		for q := 1; q <= p; q++ {
			if v := w/Time(q) + c*Time(q-1); v < want {
				want = v
			}
		}
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Comm{%v,%v}.Time(%d) = %v, brute %v", w, c, p, got, want)
		}
	})
}

// FuzzParameterProof: for any closed-form job, optionally wrapped as
// Scaled{Capped{job, max}, factor}, CheckMonotone agrees with the probe
// of the same job behind an opaque type — a job the parameter proof
// accepts must pass the exhaustive scan, and every other job must get
// the scan's verdict and error. The seeds are the edge cases of
// TestParameterProofEdges.
func FuzzParameterProof(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(0, 3.0, 97.0, false, 0, 1.0, 4096) // in-domain Amdahl
	f.Add(1, 10.0, 1.5, false, 0, 1.0, 4096) // Power α = 1.5
	f.Add(0, 10.0, -5.0, false, 0, 1.0, 64)  // Amdahl Par < 0
	f.Add(0, nan, 1.0, false, 0, 1.0, 64)    // NaN Seq
	f.Add(1, 1.0, nan, false, 0, 1.0, 64)    // NaN α
	f.Add(4, 1.0, nan, false, 0, 1.0, 64)    // NaN C
	f.Add(0, 1.0, 9.0, true, 64, 0.0, 64)    // Scaled Factor = 0
	f.Add(0, 1.0, 9.0, true, 64, nan, 64)    // Scaled Factor = NaN
	f.Add(0, 1.0, 9.0, true, 0, 1.0, 64)     // Capped Max = 0
	f.Add(3, 1e300, 0.0, true, 5, 1e300, 64) // Scaled overflow: t(1) = +Inf
	f.Add(2, inf, 0.0, false, 0, 1.0, 64)    // infinite W
	f.Add(4, 1e12, 1e-12, true, 3, 1e-12, 3) // Comm, extreme ratio
	f.Add(1, 1e-12, 0.0, true, 1, 1e12, 2)   // Power α = 0 under a cap of 1
	f.Fuzz(func(t *testing.T, family int, a, b float64, wrap bool, max int, factor float64, m int) {
		if m < 1 || m > 4096 {
			t.Skip()
		}
		j := closedFormJob(family, a, b)
		if wrap {
			j = Scaled{J: Capped{J: j, Max: max}, Factor: factor}
		}
		checkAgainstScan(t, j, m, 0)
	})
}
