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
// with the t(m) and t(1) endpoint checks first, as Search computed γ
// (strict false) and the strict count (strict true) before the
// closed-form seed.
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

// checkBisect fails t unless Search, strict and not, equals the
// reference bisection for job j at threshold th, and Gamma equals the
// non-strict Search; see also checkSearch.
func checkBisect(t *testing.T, j moldable.Job, m int, th moldable.Time) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		g, ok := checkSearch(t, j, m, th, strict)
		if wg, wok := gammaBisect(j, m, th, strict); g != wg || ok != wok {
			t.Fatalf("%v m=%d t=%v strict=%v: got (%d,%v), bisection (%d,%v)",
				j, m, th, strict, g, ok, wg, wok)
		}
		if !strict {
			if g2, ok2 := Gamma(j, m, th); g2 != g || ok2 != ok {
				t.Fatalf("%v m=%d t=%v: Gamma (%d,%v), Search (%d,%v)", j, m, th, g2, ok2, g, ok)
			}
		}
	}
}

// checkSearch runs Search(j, m, th, strict) and fails t unless its
// bracket holds the direct oracle answers — tg = t_j(g) and
// tprev = t_j(g−1) with t_j(0) = +Inf, or (−Inf, t_j(m)) when undefined —
// and it made exactly as many oracle calls as refSearch, the search
// before it returned its bracket. It returns g and ok.
func checkSearch(t *testing.T, j moldable.Job, m int, th moldable.Time, strict bool) (int, bool) {
	t.Helper()
	c := &moldable.CountingJob{J: j}
	g, tg, tprev, ok := Search(c, m, th, strict)
	calls := c.Calls()
	c.Reset()
	rg, rok := refSearch(c, m, th, strict)
	if g != rg || ok != rok || calls != c.Calls() {
		t.Fatalf("%v m=%d t=%v strict=%v: Search (%d,%v) in %d oracle calls, refSearch (%d,%v) in %d",
			j, m, th, strict, g, ok, calls, rg, rok, c.Calls())
	}
	wantG, wantPrev := math.Inf(-1), j.Time(m)
	if ok {
		wantG, wantPrev = j.Time(g), math.Inf(1)
		if g > 1 {
			wantPrev = j.Time(g - 1)
		}
	}
	if !sameTime(tg, wantG) || !sameTime(tprev, wantPrev) {
		t.Fatalf("%v m=%d t=%v strict=%v: Search γ=%d ok=%v bracket (%v, %v), oracle (%v, %v)",
			j, m, th, strict, g, ok, tg, tprev, wantG, wantPrev)
	}
	return g, ok
}

// sameTime reports x and y equal, counting two NaNs as equal.
func sameTime(x, y moldable.Time) bool { return x == y || x != x && y != y }

// refSearch is the seeded search as it stood before it returned its
// bracket (up to renaming): checkSearch pins Search to its answers and
// its oracle-call counts.
func refSearch(j moldable.Job, m int, t moldable.Time, strict bool) (int, bool) {
	var lo, hi int // t_j(lo) misses t, t_j(hi) meets it
	if x, ok := moldable.GammaSeed(j, t); ok {
		g := seedProc(x, m)
		if refMeets(j, g, t, strict) {
			hi = g // lo stays 0 until a count below g misses t
			for step := 1; hi > 1; step *= 2 {
				p := max(hi-step, 1)
				if !refMeets(j, p, t, strict) {
					lo = p
					break
				}
				hi = p
			}
		} else {
			if g == m || !refMeets(j, m, t, strict) {
				return 0, false
			}
			lo, hi = g, m
			for step := 1; lo+step < hi; step *= 2 {
				if refMeets(j, lo+step, t, strict) {
					hi = lo + step
					break
				}
				lo += step
			}
		}
	} else {
		if strict && j.Time(m) >= t || !strict && j.Time(m) > t {
			return 0, false
		}
		if refMeets(j, 1, t, strict) {
			return 1, true
		}
		lo, hi = 1, m
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if refMeets(j, mid, t, strict) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

func refMeets(j moldable.Job, p int, t moldable.Time, strict bool) bool {
	tp := j.Time(p)
	return tp < t || !strict && tp == t
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
			g1, ok1 := checkSearch(t, j, m, tt, false)
			g2, ok2 := gammaLinear(j, m, tt)
			if ok1 != ok2 || g1 != g2 {
				t.Fatalf("Gamma(m=%d, t=%v) = (%d,%v), linear (%d,%v)", m, tt, g1, ok1, g2, ok2)
			}
			s1, sok1 := checkSearch(t, j, m, tt, true)
			s2, sok2 := gammaStrictLinear(j, m, tt)
			if sok1 != sok2 || s1 != s2 {
				t.Fatalf("strict Search(m=%d, t=%v) = (%d,%v), linear (%d,%v)", m, tt, s1, sok1, s2, sok2)
			}
		}
		// exact breakpoints are the tricky thresholds
		for p := 1; p <= m; p++ {
			tt := j.Time(p)
			g1, ok1 := checkSearch(t, j, m, tt, false)
			g2, ok2 := gammaLinear(j, m, tt)
			if ok1 != ok2 || g1 != g2 {
				t.Fatalf("breakpoint Gamma(m=%d, t=t(%d)) = (%d,%v), linear (%d,%v)", m, p, g1, ok1, g2, ok2)
			}
			s1, sok1 := checkSearch(t, j, m, tt, true)
			s2, sok2 := gammaStrictLinear(j, m, tt)
			if sok1 != sok2 || s1 != s2 {
				t.Fatalf("breakpoint strict Search(m=%d, t=t(%d)) = (%d,%v), linear (%d,%v)", m, p, s1, sok1, s2, sok2)
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
	if _, _, _, ok := Search(j, 100, 10, true); ok {
		t.Error("strict Search defined although t_j(m) = t")
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
				Search(c, m, th, strict)
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
