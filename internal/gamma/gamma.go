// Package gamma computes γ_j(t) = min{p ∈ [m] : t_j(p) ≤ t}, the
// canonical number of processors for job j under a time threshold t
// (Mounié, Rapine & Trystram; Jansen & Land §3). For monotone jobs t_j is
// non-increasing, so the paper finds γ by binary search with O(log m)
// oracle calls — the key to running times polylogarithmic in m.
//
// Monotony gives more for the closed-form families: the speedup model
// can be inverted (Amdahl p ≥ Par/(t−Seq), and so on; see
// moldable.GammaSeed), so the search starts at that guess and checks it
// with two oracle calls, t_j(g) ≤ t < t_j(g−1). A miss gallops outwards
// from the guess and bisects the bracket it finds. Every answer is such
// an oracle boundary, so a non-increasing t_j gives exactly the
// bisection's γ. Every other job type, and every case GammaSeed
// declines, is bisected over [1, m]. Search hands the boundary's two
// oracle answers back with γ, so a caller asking again (lt's estimator)
// can answer any threshold between them without the oracle.
package gamma

import (
	"math"

	"repro/internal/compress"
	"repro/internal/moldable"
)

// Gamma returns γ_j(t) and true, or (0, false) when t_j(m) > t (no
// processor count meets the threshold, "γ undefined" in the paper).
//
//sched:hotpath
func Gamma(j moldable.Job, m int, t moldable.Time) (int, bool) {
	g, _, _, ok := Search(j, m, t, false)
	return g, ok
}

// Search returns g = γ_j(t), or min{p : t_j(p) < t} when strict, with
// the two oracle answers that prove it: tg = t_j(g) meets t and
// tprev = t_j(g−1) misses it, where t_j(0) = +Inf. Both are answers the
// search has already computed. When no count meets t (t_j(m) > t, or
// t_j(m) ≥ t when strict) it returns (0, −Inf, t_j(m), false), as if
// t_j(m+1) = −Inf.
//
// For a non-increasing t_j the bracket answers every other threshold u
// it holds: tg ≤ u < tprev gives γ_j(u) = g, and tg < u ≤ tprev gives
// the strict count g, with no further oracle call.
//
//sched:hotpath
func Search(j moldable.Job, m int, t moldable.Time, strict bool) (g int, tg, tprev moldable.Time, ok bool) {
	// t_j(lo) misses t and t_j(hi) meets it; tlo and thi are their
	// answers, with lo = 0 standing for t_j(0) = +Inf.
	var lo, hi int
	tlo, thi := math.Inf(1), math.Inf(1)
	if x, ok := moldable.GammaSeed(j, t); ok {
		// Probe the guess g, then gallop away from it with steps 1, 2,
		// 4, … until the boundary is bracketed: a right guess costs two
		// oracle calls.
		guess := seedProc(x, m)
		if tp := j.Time(guess); meets(tp, t, strict) {
			hi, thi = guess, tp // lo stays 0 until a count below the guess misses t
			for step := 1; hi > 1; step *= 2 {
				p := max(hi-step, 1)
				tp := j.Time(p)
				if !meets(tp, t, strict) {
					lo, tlo = p, tp
					break
				}
				hi, thi = p, tp
			}
		} else {
			// A t below the job's floor (a strict search at t_j(m), say)
			// is common, so t_j(m) is checked before galloping up.
			tm := tp
			if guess != m {
				tm = j.Time(m)
			}
			if guess == m || !meets(tm, t, strict) {
				return 0, math.Inf(-1), tm, false
			}
			lo, tlo, hi, thi = guess, tp, m, tm
			for step := 1; lo+step < hi; step *= 2 {
				tp := j.Time(lo + step)
				if meets(tp, t, strict) {
					hi, thi = lo+step, tp
					break
				}
				lo, tlo = lo+step, tp
			}
		}
	} else {
		// The paper's bisection, endpoints first. The t_j(m) test asks
		// for a miss rather than !meets, so a NaN answers as it always has.
		tm := j.Time(m)
		if strict && tm >= t || !strict && tm > t {
			return 0, math.Inf(-1), tm, false
		}
		t1 := j.Time(1)
		if meets(t1, t, strict) {
			return 1, t1, math.Inf(1), true
		}
		if m > 1 { // for m = 1 only a NaN t gets here, and γ is 1
			lo, tlo = 1, t1
		}
		hi, thi = m, tm
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if tp := j.Time(mid); meets(tp, t, strict) {
			hi, thi = mid, tp
		} else {
			lo, tlo = mid, tp
		}
	}
	return hi, thi, tlo, true
}

// meets reports t_j(p) ≤ t, or t_j(p) < t when strict, for tp = t_j(p).
func meets(tp, t moldable.Time, strict bool) bool {
	return tp < t || !strict && tp == t
}

// seedProc clamps ⌈x⌉ to [1, m]; x is not NaN, and the infinities are
// clamped before any integer conversion. At a breakpoint threshold
// t = t_j(k), x lands a few ulps either side of k: the guarded ceiling
// takes k for both, so where t_j strictly decreases γ (k) costs two
// probes and the strict count (k+1) three.
func seedProc(x float64, m int) int {
	if !(x > 1) {
		return 1
	}
	if x >= float64(m) {
		return m
	}
	return compress.CeilInt(x)
}
