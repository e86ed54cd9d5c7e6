package gamma

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/moldable"
)

// gammaBisect is the reference: the paper's binary search over [1, m]
// with the t(m) and t(1) endpoint checks first, as Gamma (strict false)
// and GammaStrict (strict true) computed γ before the closed-form seed.
func gammaBisect(j moldable.Job, m int, t moldable.Time, strict bool) (int, bool) {
	meets := func(p int) bool {
		if strict {
			return j.Time(p) < t
		}
		return j.Time(p) <= t
	}
	if strict && j.Time(m) >= t || !strict && j.Time(m) > t {
		return 0, false
	}
	if meets(1) {
		return 1, true
	}
	lo, hi := 1, m
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// checkBisect fails t unless Gamma and GammaStrict equal the reference
// bisection for job j at threshold th.
func checkBisect(t *testing.T, j moldable.Job, m int, th moldable.Time) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		var g int
		var ok bool
		if strict {
			g, ok = GammaStrict(j, m, th)
		} else {
			g, ok = Gamma(j, m, th)
		}
		if wg, wok := gammaBisect(j, m, th, strict); g != wg || ok != wok {
			t.Fatalf("%v m=%d t=%v strict=%v: got (%d,%v), bisection (%d,%v)",
				j, m, th, strict, g, ok, wg, wok)
		}
	}
}

// TestGammaClosedFormMatchesBisection: for the five closed-form
// families the seeded search returns exactly the bisection's γ, at
// breakpoint thresholds t(p), one and two ulps either side of them, at
// both endpoints and at random points, for m up to 2^30.
func TestGammaClosedFormMatchesBisection(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	for _, m := range []int{1, 2, 7, 1 << 10, 1 << 20, 1 << 30} {
		for seed := uint64(0); seed < 4; seed++ {
			in := moldable.Random(moldable.GenConfig{N: 64, M: m, Seed: seed})
			for _, j := range in.Jobs {
				lo, hi := j.Time(m), j.Time(1)
				ths := []moldable.Time{hi, lo, 0, -1, math.Inf(1), math.NaN()}
				for k := 0; k < 8; k++ {
					// log-uniform breakpoints reach every scale of [1, m]
					ths = append(ths, j.Time(int(math.Pow(float64(m), rng.Float64()))),
						lo/2+rng.Float64()*(2*hi-lo/2))
				}
				for _, th := range ths {
					for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
						for k, x := 0, th; k < 3; k, x = k+1, math.Nextafter(x, dir) {
							checkBisect(t, j, m, x)
						}
					}
				}
			}
		}
	}
}

// gammaLinear is the O(m) reference implementation.
func gammaLinear(j moldable.Job, m int, t moldable.Time) (int, bool) {
	for p := 1; p <= m; p++ {
		if j.Time(p) <= t {
			return p, true
		}
	}
	return 0, false
}

func gammaStrictLinear(j moldable.Job, m int, t moldable.Time) (int, bool) {
	for p := 1; p <= m; p++ {
		if j.Time(p) < t {
			return p, true
		}
	}
	return 0, false
}

func TestGammaMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for it := 0; it < 500; it++ {
		m := 1 + rng.IntN(64)
		j := moldable.SmallTable(rng, m, 100)
		// probe thresholds around actual values and in between
		for k := 0; k < 10; k++ {
			tt := 100 * rng.Float64()
			g1, ok1 := Gamma(j, m, tt)
			g2, ok2 := gammaLinear(j, m, tt)
			if ok1 != ok2 || g1 != g2 {
				t.Fatalf("Gamma(m=%d, t=%v) = (%d,%v), linear (%d,%v)", m, tt, g1, ok1, g2, ok2)
			}
			s1, sok1 := GammaStrict(j, m, tt)
			s2, sok2 := gammaStrictLinear(j, m, tt)
			if sok1 != sok2 || s1 != s2 {
				t.Fatalf("GammaStrict(m=%d, t=%v) = (%d,%v), linear (%d,%v)", m, tt, s1, sok1, s2, sok2)
			}
		}
		// exact breakpoints are the tricky thresholds
		for p := 1; p <= m; p++ {
			tt := j.Time(p)
			g1, ok1 := Gamma(j, m, tt)
			g2, ok2 := gammaLinear(j, m, tt)
			if ok1 != ok2 || g1 != g2 {
				t.Fatalf("breakpoint Gamma(m=%d, t=t(%d)) = (%d,%v), linear (%d,%v)", m, p, g1, ok1, g2, ok2)
			}
		}
	}
}

// Property: γ is antitone in the threshold — larger t never needs more
// processors — and t_j(γ_j(t)) ≤ t always holds.
func TestGammaProperties(t *testing.T) {
	f := func(w uint16, aRaw uint8, t1Raw, t2Raw uint16) bool {
		j := moldable.Power{W: 1 + float64(w), Alpha: float64(aRaw%101) / 100}
		m := 1 << 16
		ta := 0.001 + float64(t1Raw)
		tb := ta + float64(t2Raw)
		ga, oka := Gamma(j, m, ta)
		gb, okb := Gamma(j, m, tb)
		if oka {
			if j.Time(ga) > ta {
				return false
			}
			if ga > 1 && j.Time(ga-1) <= ta {
				return false // not minimal
			}
		}
		if oka && okb && gb > ga {
			return false // antitone violated
		}
		if oka && !okb {
			return false // larger threshold cannot become infeasible
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestGammaUndefined(t *testing.T) {
	j := moldable.Sequential{T: 10}
	if _, ok := Gamma(j, 100, 5); ok {
		t.Error("Gamma defined although t_j(m) > t")
	}
	if g, ok := Gamma(j, 100, 10); !ok || g != 1 {
		t.Errorf("Gamma = (%d,%v), want (1,true)", g, ok)
	}
	if _, ok := GammaStrict(j, 100, 10); ok {
		t.Error("GammaStrict defined although t_j(m) = t (strict)")
	}
}

// TestGammaLogarithmicOracleCalls pins the cost of one γ at m = 2^30.
// A right seed costs two oracle calls, and a seed d processors off
// about 2·log₂ d more. Closed-form jobs average under three calls; the
// worst case is an Amdahl job far out on its curve, where Seq + Par/p
// keeps one float value over runs of tens of processors. A Table job
// has no seed and keeps the bisection's 2 + log₂ m.
func TestGammaLogarithmicOracleCalls(t *testing.T) {
	const m = 1 << 30
	c := &moldable.CountingJob{J: moldable.PerfectSpeedup{W: m}}
	if g, ok := Gamma(c, m, 1); !ok || g != m || c.Calls() > 2 {
		t.Errorf("perfect speedup: γ = (%d,%v) in %d calls, want (2^30,true) in ≤ 2", g, ok, c.Calls())
	}

	rng := rand.New(rand.NewPCG(15, 2))
	in := moldable.Random(moldable.GenConfig{N: 256, M: m, Seed: 9})
	var total, queries, worst int64
	for _, j := range in.Jobs {
		c := &moldable.CountingJob{J: j}
		for k := 0; k < 8; k++ {
			th := j.Time(int(math.Pow(m, rng.Float64())))
			for _, strict := range []bool{false, true} {
				c.Reset()
				if strict {
					GammaStrict(c, m, th)
				} else {
					Gamma(c, m, th)
				}
				total, queries, worst = total+c.Calls(), queries+1, max(worst, c.Calls())
			}
		}
	}
	mean := float64(total) / float64(queries)
	t.Logf("closed-form jobs: %.2f oracle calls per γ, worst %d", mean, worst)
	if mean > 3 || worst > 16 {
		t.Errorf("closed-form jobs: %.2f oracle calls per γ, worst %d; want ≤ 3 and ≤ 16", mean, worst)
	}

	tb := &moldable.CountingJob{J: moldable.SmallTable(rng, 4096, 100)}
	budget := int64(2*bits.Len(uint(m-1)) + 2) // 2⌈log₂ m⌉ + 2
	for _, p := range []int{2, 100, 4000} {
		th := tb.J.Time(p)
		checkBisect(t, tb.J, m, th)
		tb.Reset()
		Gamma(tb, m, th)
		if calls := tb.Calls(); calls > budget {
			t.Errorf("Table job: %d oracle calls at m=2^30, want ≤ %d", calls, budget)
		}
	}
}

func TestPrecompute(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 12, M: 128, Seed: 4})
	d := in.LowerBound() * 2
	th := Precompute(in, []moldable.Time{d / 2, d, 1.5 * d})
	for k, tt := range th.T {
		for i, j := range in.Jobs {
			want, wok := Gamma(j, in.M, tt)
			got, gok := th.At(k, i)
			if wok != gok || (wok && want != got) {
				t.Fatalf("threshold %v job %d: precomputed (%d,%v), direct (%d,%v)", tt, i, got, gok, want, wok)
			}
		}
	}
}
