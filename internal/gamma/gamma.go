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
// declines, is bisected over [1, m].
package gamma

import (
	"repro/internal/compress"
	"repro/internal/moldable"
)

// Gamma returns γ_j(t) and true, or (0, false) when t_j(m) > t (no
// processor count meets the threshold, "γ undefined" in the paper).
//
//sched:hotpath
func Gamma(j moldable.Job, m int, t moldable.Time) (int, bool) {
	return search(j, m, t, false)
}

// GammaStrict returns min{p : t_j(p) < t} (strict inequality) and true,
// or (0, false) if t_j(m) ≥ t. Used by the Ludwig–Tiwari matrix search to
// locate the largest breakpoint strictly below a value.
//
//sched:hotpath
func GammaStrict(j moldable.Job, m int, t moldable.Time) (int, bool) {
	return search(j, m, t, true)
}

// search is Gamma (strict false) and GammaStrict (strict true).
//
//sched:hotpath
func search(j moldable.Job, m int, t moldable.Time, strict bool) (int, bool) {
	var lo, hi int // t_j(lo) misses t, t_j(hi) meets it
	if x, ok := moldable.GammaSeed(j, t); ok {
		// Probe the guess g, then gallop away from it with steps 1, 2,
		// 4, … until the boundary is bracketed: a right guess costs two
		// oracle calls.
		g := seedProc(x, m)
		if meets(j, g, t, strict) {
			hi = g // lo stays 0 until a count below g misses t
			for step := 1; hi > 1; step *= 2 {
				p := max(hi-step, 1)
				if !meets(j, p, t, strict) {
					lo = p
					break
				}
				hi = p
			}
		} else {
			// A t below the job's floor (GammaStrict at t_j(m), say) is
			// common, so t_j(m) is checked before galloping up.
			if g == m || !meets(j, m, t, strict) {
				return 0, false
			}
			lo, hi = g, m
			for step := 1; lo+step < hi; step *= 2 {
				if meets(j, lo+step, t, strict) {
					hi = lo + step
					break
				}
				lo += step
			}
		}
	} else {
		// The paper's bisection, endpoints first. The t_j(m) test asks
		// for a miss rather than !meets, so a NaN answers as it always has.
		if strict && j.Time(m) >= t || !strict && j.Time(m) > t {
			return 0, false
		}
		if meets(j, 1, t, strict) {
			return 1, true
		}
		lo, hi = 1, m
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if meets(j, mid, t, strict) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// meets reports t_j(p) ≤ t, or t_j(p) < t when strict. One oracle call
// keeps it within the inlining budget.
func meets(j moldable.Job, p int, t moldable.Time, strict bool) bool {
	tp := j.Time(p)
	return tp < t || !strict && tp == t
}

// seedProc clamps ⌈x⌉ to [1, m]; x is not NaN, and the infinities are
// clamped before any integer conversion. At a breakpoint threshold
// t = t_j(k), x lands a few ulps either side of k: the guarded ceiling
// takes k for both, so where t_j strictly decreases Gamma (k) costs two
// probes and GammaStrict (k+1) three.
func seedProc(x float64, m int) int {
	if !(x > 1) {
		return 1
	}
	if x >= float64(m) {
		return m
	}
	return compress.CeilInt(x)
}

// Thresholds precomputes γ_j at a fixed set of thresholds for every job
// of an instance, as done at the top of Algorithms 1 and 3 (the paper
// precomputes γ_j(d/2), γ_j(d), γ_j(d′/2), γ_j(d′), γ_j(3d′/2)).
//
// Values[k][i] is γ of job i at thresholds[k]; Defined[k][i] reports
// whether it exists.
type Thresholds struct {
	T       []moldable.Time
	Values  [][]int
	Defined [][]bool
}

// Precompute evaluates γ for every (threshold, job) pair.
func Precompute(in *moldable.Instance, thresholds []moldable.Time) *Thresholds {
	th := &Thresholds{
		T:       thresholds,
		Values:  make([][]int, len(thresholds)),
		Defined: make([][]bool, len(thresholds)),
	}
	for k, t := range thresholds {
		th.Values[k] = make([]int, in.N())
		th.Defined[k] = make([]bool, in.N())
		for i, j := range in.Jobs {
			g, ok := Gamma(j, in.M, t)
			th.Values[k][i] = g
			th.Defined[k][i] = ok
		}
	}
	return th
}

// At returns γ of job i at the k-th threshold.
func (th *Thresholds) At(k, i int) (int, bool) { return th.Values[k][i], th.Defined[k][i] }
