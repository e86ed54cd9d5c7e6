package lt

// Grid-restricted estimation (ISSUE 5, after the compression theme of
// arXiv:2303.01414): EstimateGrid runs the same
// Frederickson–Johnson matrix search as EstimateScratch, but with the
// per-job processor counts restricted to a caller-supplied candidate
// grid — the compressed count classes of the Conv algorithm. The
// candidate space shrinks from n·m to n·|cands| entries, every γ
// bisection from O(log m) to O(log |cands|) oracle calls, and the
// number of weighted-median rounds from O(log nm) to O(log(n·|cands|))
// (docs/PERFORMANCE.md, BenchmarkCrossover_ConvVsLinear, measures the
// saving against EstimateScratch's seeded γ).
//
// The price is a bounded weakening of the estimate. Let κ bound the
// overshoot of rounding a count up onto the grid (for the Conv grid,
// κ = 21/20: dense below 40, steps ⌈g/40⌉ above). Then, writing ω_S
// for the restricted estimate:
//
//	ω_S ≤ κ·OPT   (evaluate f_S at τ = OPT: every optimal allotment
//	              rounds up onto the grid within factor κ, work grows
//	              by at most κ, times only shrink), and
//	OPT ≤ 2·ω_S   (list-scheduling the restricted canonical allotment
//	              gives a schedule of makespan ≤ W_S/m + T_S ≤ 2ω_S).
//
// So OPT ∈ [ω_S/κ, 2ω_S] — the interval the Conv scheduler hands to
// dual.Search. With cands = [1..m] the function degenerates to
// EstimateScratch exactly (κ = 1), which the tests pin.

import (
	"math"
	"slices"

	"repro/internal/arena"
	"repro/internal/moldable"
)

// gridIdx returns the smallest index i with t_j(cands[i]) ≤ v, or
// (0, false) when even the last candidate misses v. cands must be
// strictly increasing, so t_j over cands is non-increasing.
func gridIdx(j moldable.Job, cands []int, v moldable.Time) (int, bool) {
	last := len(cands) - 1
	if j.Time(cands[last]) > v {
		return 0, false
	}
	if j.Time(cands[0]) <= v {
		return 0, true
	}
	lo, hi := 0, last // invariant: t(cands[lo]) > v, t(cands[hi]) ≤ v
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if j.Time(cands[mid]) <= v {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// gridIdxStrict is gridIdx with strict inequality t_j(cands[i]) < v.
func gridIdxStrict(j moldable.Job, cands []int, v moldable.Time) (int, bool) {
	last := len(cands) - 1
	if j.Time(cands[last]) >= v {
		return 0, false
	}
	if j.Time(cands[0]) < v {
		return 0, true
	}
	lo, hi := 0, last
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if j.Time(cands[mid]) < v {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}

// evaluateGrid is evaluate with counts restricted to cands.
func evaluateGrid(in *moldable.Instance, cands []int, v moldable.Time) evalResult {
	var res evalResult
	res.feasible = true
	for _, j := range in.Jobs {
		idx, ok := gridIdx(j, cands, v)
		if !ok {
			return evalResult{feasible: false}
		}
		g := cands[idx]
		tg := j.Time(g)
		res.w += moldable.Time(g) * tg
		if tg > res.t {
			res.t = tg
		}
	}
	return res
}

// predGrid is the flip predicate of the restricted matrix search.
func predGrid(in *moldable.Instance, cands []int, v moldable.Time) bool {
	e := evaluateGrid(in, cands, v)
	return e.feasible && e.w/moldable.Time(in.M) <= e.t
}

// EstimateGrid computes ω_S, the Ludwig–Tiwari estimate with
// allotments restricted to the candidate counts cands (strictly
// increasing, cands[len-1] must be in.M so γ̃ is defined whenever γ
// is). See the file comment for the ω_S ↔ OPT bracketing. A warm
// Scratch makes the whole estimation allocation-free; Result.Allot
// then aliases the scratch. A nil scratch uses fresh buffers.
//
// LOCK-STEP: this is EstimateScratch (lt.go) with processor counts
// replaced by candidate indices and gamma.Gamma/GammaStrict by
// gridIdx/gridIdxStrict — round cap, 4n cut-off, keep-set edge cases
// and all. A fix to the matrix search in either function must be
// applied to both; TestEstimateGridIdentity pins their equivalence on
// the full grid.
//
//sched:owns-result
func EstimateGrid(in *moldable.Instance, cands []int, sc *Scratch) Result {
	if sc == nil {
		sc = &Scratch{}
	}
	n, L := in.N(), len(cands)
	vmax := moldable.Time(0)
	for _, j := range in.Jobs {
		if t := j.Time(cands[0]); t > vmax {
			vmax = t
		}
	}
	if !predGrid(in, cands, vmax) {
		return finalizeGrid(in, cands, vmax, math.Inf(1), 0, sc)
	}

	// Per-job active interval [a_i, b_i] of candidate INDICES whose
	// breakpoints may still be v̂.
	a := arena.Grow(sc.a, n)
	b := arena.Grow(sc.b, n)
	sc.a, sc.b = a, b
	for i := range a {
		a[i], b[i] = 0, L-1
	}
	total := int64(n) * int64(L)
	rounds := 0
	med := sc.med[:0]
	for total > int64(4*n) && rounds < 300 {
		rounds++
		med = med[:0]
		var sum int64
		for i := 0; i < n; i++ {
			if a[i] > b[i] {
				continue
			}
			pm := a[i] + (b[i]-a[i])/2
			w := int64(b[i] - a[i] + 1)
			med = append(med, wtuple{tuple{in.Jobs[i].Time(cands[pm]), i, pm}, w})
			sum += w
		}
		if len(med) == 0 {
			break
		}
		slices.SortFunc(med, wtupleCmp)
		var cum int64
		var tmed tuple
		for _, wt := range med {
			cum += wt.w
			if cum*2 >= sum {
				tmed = wt.tuple
				break
			}
		}
		if predGrid(in, cands, tmed.v) {
			// v̂ ≤ tmed: keep-sets are index suffixes [x, L-1].
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					continue
				}
				var x int
				switch {
				case i == tmed.j:
					x = tmed.p
				case i < tmed.j:
					g0, ok := gridIdx(in.Jobs[i], cands, tmed.v)
					if !ok {
						x = L
					} else {
						x = g0
					}
				default:
					g1, ok := gridIdxStrict(in.Jobs[i], cands, tmed.v)
					if !ok {
						x = L
					} else {
						x = g1
					}
				}
				if x > a[i] {
					a[i] = x
				}
			}
		} else {
			// v̂ > tmed: keep-sets are index prefixes [0, y].
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					continue
				}
				var y int
				switch {
				case i == tmed.j:
					y = tmed.p - 1
				case i < tmed.j:
					g0, ok := gridIdx(in.Jobs[i], cands, tmed.v)
					if !ok {
						y = b[i]
					} else {
						y = g0 - 1
					}
				default:
					g1, ok := gridIdxStrict(in.Jobs[i], cands, tmed.v)
					if !ok {
						y = b[i]
					} else {
						y = g1 - 1
					}
				}
				if y < b[i] {
					b[i] = y
				}
			}
		}
		total = 0
		for i := 0; i < n; i++ {
			if a[i] <= b[i] {
				total += int64(b[i] - a[i] + 1)
			}
		}
	}
	sc.med = med

	if int64(cap(sc.values)) < total+1 {
		sc.values = make([]moldable.Time, 0, total+1)
	}
	values := sc.values[:0]
	for i := 0; i < n; i++ {
		for p := a[i]; p <= b[i]; p++ {
			values = append(values, in.Jobs[i].Time(cands[p]))
		}
	}
	values = append(values, vmax) // safety: predGrid(vmax) holds
	sc.values = values
	slices.Sort(values)
	values = dedupe(values)
	lo, hi := 0, len(values)-1 // invariant: predGrid(values[hi]) true
	for lo < hi {
		mid := lo + (hi-lo)/2
		if predGrid(in, cands, values[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	vhat := values[hi]

	predv := math.Inf(-1)
	for _, j := range in.Jobs {
		if idx, ok := gridIdxStrict(j, cands, vhat); ok {
			if t := j.Time(cands[idx]); t > predv {
				predv = t
			}
		}
	}
	return finalizeGrid(in, cands, vhat, predv, rounds, sc)
}

//sched:owns-result
func finalizeGrid(in *moldable.Instance, cands []int, vhat, predv moldable.Time, rounds int, sc *Scratch) Result {
	fh := evaluateGrid(in, cands, vhat).f(in.M)
	vstar, omega := vhat, fh
	if !math.IsInf(predv, 0) {
		if fp := evaluateGrid(in, cands, predv).f(in.M); fp < omega {
			vstar, omega = predv, fp
		}
	}
	allot := arena.Grow(sc.allot, in.N())
	sc.allot = allot
	for i, j := range in.Jobs {
		idx, ok := gridIdx(j, cands, vstar)
		if !ok {
			idx = len(cands) - 1
		}
		allot[i] = cands[idx]
	}
	return Result{Omega: omega, VStar: vstar, Allot: allot, Rounds: rounds}
}
