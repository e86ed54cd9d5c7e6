// Package gamma computes γ_j(t) = min{p ∈ [m] : t_j(p) ≤ t}, the
// canonical number of processors for job j under a time threshold t
// (Mounié, Rapine & Trystram; Jansen & Land §3). For monotone jobs t_j is
// non-increasing, so γ is found by binary search with O(log m) oracle
// calls — the key to running times polylogarithmic in m.
package gamma

import "repro/internal/moldable"

// Gamma returns γ_j(t) and true, or (0, false) when t_j(m) > t (no
// processor count meets the threshold, "γ undefined" in the paper).
//
//sched:hotpath
func Gamma(j moldable.Job, m int, t moldable.Time) (int, bool) {
	if j.Time(m) > t {
		return 0, false
	}
	if j.Time(1) <= t {
		return 1, true
	}
	// Invariant: t_j(lo) > t, t_j(hi) ≤ t.
	lo, hi := 1, m
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if j.Time(mid) <= t {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// GammaStrict returns min{p : t_j(p) < t} (strict inequality) and true,
// or (0, false) if t_j(m) ≥ t. Used by the Ludwig–Tiwari matrix search to
// locate the largest breakpoint strictly below a value.
//
//sched:hotpath
func GammaStrict(j moldable.Job, m int, t moldable.Time) (int, bool) {
	if j.Time(m) >= t {
		return 0, false
	}
	if j.Time(1) < t {
		return 1, true
	}
	lo, hi := 1, m
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if j.Time(mid) < t {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
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
