package lt

// Reference equivalence: before the search was shared, the estimator
// ran as two hand-kept copies of the matrix search, one over processor
// counts and one over a candidate grid. The ref* functions below are
// the processor-count copy, kept verbatim up to renaming, and the tests
// here require the search to return the same Result, bit for bit.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/arena"
	"repro/internal/gamma"
	"repro/internal/moldable"
)

// sameResult compares two Results bitwise: Omega and VStar by their
// float bits, Rounds and every allotment entry exactly.
func sameResult(got, want Result) bool {
	return math.Float64bits(got.Omega) == math.Float64bits(want.Omega) &&
		math.Float64bits(got.VStar) == math.Float64bits(want.VStar) &&
		got.Rounds == want.Rounds && slices.Equal(got.Allot, want.Allot)
}

// checkEquivalent runs the search and the reference on in.
func checkEquivalent(t *testing.T, in *moldable.Instance, tag string) {
	t.Helper()
	if got, want := EstimateScratch(in, nil), refEstimateScratch(in, nil); !sameResult(got, want) {
		t.Fatalf("%s: got ω=%v v*=%v rounds=%d, want ω=%v v*=%v rounds=%d (allot equal: %v)",
			tag, got.Omega, got.VStar, got.Rounds, want.Omega, want.VStar, want.Rounds, slices.Equal(got.Allot, want.Allot))
	}
}

// tiedInstance returns n jobs on m machines, each a copy of one of 1–3
// base jobs of a moldable.Random instance. Copies share every
// breakpoint, so the search meets exact ties across jobs, which
// moldable.Random alone never produces; only the job order of
// tupleLess then separates their tuples.
func tiedInstance(rng *rand.Rand, n, m int) *moldable.Instance {
	base := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(3), M: m, Seed: rng.Uint64()})
	in := &moldable.Instance{M: m, Jobs: make([]moldable.Job, n)}
	for i := range in.Jobs {
		in.Jobs[i] = base.Jobs[rng.IntN(len(base.Jobs))]
	}
	return in
}

// TestEstimateReferenceEquivalence: on moldable.Random instances, and
// on tie-heavy copies of a few of their jobs, with m from 40 to 2^30,
// the search equals the reference exactly.
func TestEstimateReferenceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 0))
	tieRng := rand.New(rand.NewPCG(48, 0))
	for _, m := range []int{40, 41, 1 << 10, 1 << 16, 1 << 20, 1 << 30} {
		for it := 0; it < 12; it++ {
			n := 1 + rng.IntN(64)
			in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
			checkEquivalent(t, in, fmt.Sprintf("m=%d it=%d n=%d", m, it, n))
			n = 1 + tieRng.IntN(64)
			checkEquivalent(t, tiedInstance(tieRng, n, m), fmt.Sprintf("m=%d it=%d n=%d tied", m, it, n))
		}
	}
}

// FuzzEstimateEquivalence extends the reference check to arbitrary
// shapes with m ≤ 2^30; tied selects a tiedInstance.
func FuzzEstimateEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, m := range []uint32{40, 41, 1 << 10, 1 << 16, 1 << 20, 1 << 30} {
			f.Add(uint8(seed*9), m, seed, seed%2 == 1)
		}
	}
	f.Fuzz(func(t *testing.T, n uint8, m uint32, seed uint64, tied bool) {
		nn := 1 + int(n)%64
		mm := min(max(int(m), 1), 1<<30)
		var in *moldable.Instance
		if tied {
			in = tiedInstance(rand.New(rand.NewPCG(seed, 1)), nn, mm)
		} else {
			in = moldable.Random(moldable.GenConfig{N: nn, M: mm, Seed: seed})
		}
		checkEquivalent(t, in, fmt.Sprintf("n=%d m=%d seed=%d tied=%v", nn, mm, seed, tied))
	})
}

// --- the reference copies ---

func refEvaluate(in *moldable.Instance, v moldable.Time) evalResult {
	var res evalResult
	res.feasible = true
	for _, j := range in.Jobs {
		g, ok := gamma.Gamma(j, in.M, v)
		if !ok {
			return evalResult{feasible: false}
		}
		tg := j.Time(g)
		res.w += moldable.Time(g) * tg
		if tg > res.t {
			res.t = tg
		}
	}
	return res
}

// refPred reports whether W(v)/m ≤ T(v) at a feasible v.
func refPred(in *moldable.Instance, v moldable.Time) bool {
	e := refEvaluate(in, v)
	return e.feasible && e.w/moldable.Time(in.M) <= e.t
}

// refEstimateScratch is the identity-space matrix search as it stood
// before the merge.
func refEstimateScratch(in *moldable.Instance, sc *Scratch) Result {
	if sc == nil {
		sc = &Scratch{}
	}
	n, m := in.N(), in.M
	// vmax = max_j t_j(1) is the largest breakpoint; it is always
	// feasible. If even vmax has W/m > T, no breakpoint flips the
	// predicate and f is minimized at vmax.
	vmax := moldable.Time(0)
	for _, j := range in.Jobs {
		if t := j.Time(1); t > vmax {
			vmax = t
		}
	}
	if !refPred(in, vmax) {
		return refFinalize(in, vmax, math.Inf(1), 0, sc)
	}

	// Per-job active interval [a_i, b_i] of processor counts whose
	// breakpoints may still be v̂ (the least breakpoint satisfying refPred).
	a := arena.Grow(sc.a, n)
	b := arena.Grow(sc.b, n)
	sc.a, sc.b = a, b
	for i := range a {
		a[i], b[i] = 1, m
	}
	total := int64(n) * int64(m)
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
			med = append(med, wtuple{tuple{in.Jobs[i].Time(pm), i, pm}, w})
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
		if refPred(in, tmed.v) {
			// v̂ ≤ tmed: keep tuples ≤ tmed. Keep-sets are suffixes [x, m].
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					continue
				}
				var x int
				switch {
				case i == tmed.j:
					x = tmed.p
				case i < tmed.j:
					g0, ok := gamma.Gamma(in.Jobs[i], m, tmed.v)
					if !ok {
						x = m + 1
					} else {
						x = g0
					}
				default:
					g1, ok := gamma.GammaStrict(in.Jobs[i], m, tmed.v)
					if !ok {
						x = m + 1
					} else {
						x = g1
					}
				}
				if x > a[i] {
					a[i] = x
				}
			}
		} else {
			// v̂ > tmed: keep tuples > tmed. Keep-sets are prefixes [1, y].
			for i := 0; i < n; i++ {
				if a[i] > b[i] {
					continue
				}
				var y int
				switch {
				case i == tmed.j:
					y = tmed.p - 1
				case i < tmed.j:
					g0, ok := gamma.Gamma(in.Jobs[i], m, tmed.v)
					if !ok {
						y = b[i]
					} else {
						y = g0 - 1
					}
				default:
					g1, ok := gamma.GammaStrict(in.Jobs[i], m, tmed.v)
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

	// Collect the surviving candidate values and binary search the least
	// one satisfying the predicate. v̂ is guaranteed to have survived.
	if int64(cap(sc.values)) < total+1 {
		sc.values = make([]moldable.Time, 0, total+1)
	}
	values := sc.values[:0]
	for i := 0; i < n; i++ {
		for p := a[i]; p <= b[i]; p++ {
			values = append(values, in.Jobs[i].Time(p))
		}
	}
	values = append(values, vmax) // safety: refPred(vmax) holds
	sc.values = values
	slices.Sort(values)
	values = dedupe(values)
	lo, hi := 0, len(values)-1 // invariant: refPred(values[hi]) true
	for lo < hi {
		mid := lo + (hi-lo)/2
		if refPred(in, values[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	vhat := values[hi]

	// Predecessor: the largest breakpoint strictly below v̂ across all
	// jobs (the minimum of f may be there, where f = W/m).
	predv := math.Inf(-1)
	for _, j := range in.Jobs {
		if g, ok := gamma.GammaStrict(j, m, vhat); ok {
			if t := j.Time(g); t > predv {
				predv = t
			}
		}
	}
	return refFinalize(in, vhat, predv, rounds, sc)
}

func refFinalize(in *moldable.Instance, vhat, predv moldable.Time, rounds int, sc *Scratch) Result {
	fh := refEvaluate(in, vhat).f(in.M)
	vstar, omega := vhat, fh
	if !math.IsInf(predv, 0) {
		if fp := refEvaluate(in, predv).f(in.M); fp < omega {
			vstar, omega = predv, fp
		}
	}
	allot := arena.Grow(sc.allot, in.N())
	sc.allot = allot
	for i, j := range in.Jobs {
		g, _ := gamma.Gamma(j, in.M, vstar)
		allot[i] = g
	}
	return Result{Omega: omega, VStar: vstar, Allot: allot, Rounds: rounds}
}
