package lt

// Reference equivalence: the ref* functions below are the matrix search
// as it stood before γ brackets, the fused γ pass and the weighted-median
// selection: every predicate searches γ and calls t(γ) for every job,
// every prune searches γ again (strictly after tmed's job), and the
// median comes from a sort. They are kept verbatim up to renaming, and
// the tests here require the search to return the same Result, bit for
// bit.

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

// mixedInstance returns n jobs on m machines drawn from the job types
// moldable.Random never emits: Table (at most 64 entries, constant
// beyond), Capped and Scaled closed forms, and Piecewise. γ has no
// closed-form seed for any of them, so their searches take the
// bisection path; about a quarter of the jobs are Random's closed forms,
// which take the seeded one.
func mixedInstance(rng *rand.Rand, n, m int) *moldable.Instance {
	base := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
	in := &moldable.Instance{M: m, Jobs: make([]moldable.Job, n)}
	for i, j := range base.Jobs {
		switch rng.IntN(5) {
		case 0:
			in.Jobs[i] = moldable.SmallTable(rng, min(m, 64), 1+1000*rng.Float64())
		case 1:
			in.Jobs[i] = moldable.Capped{J: j, Max: 1 + rng.IntN(m)}
		case 2:
			in.Jobs[i] = moldable.Scaled{J: j, Factor: 0.25 + 4*rng.Float64()}
		case 3:
			procs, times := []int{1}, []moldable.Time{j.Time(1)}
			for p := 2 + rng.IntN(4); p <= m; p *= 2 + rng.IntN(7) {
				procs, times = append(procs, p), append(times, j.Time(p))
			}
			pw, err := moldable.NewPiecewise(procs, times)
			if err != nil {
				panic(err)
			}
			in.Jobs[i] = pw
		default:
			in.Jobs[i] = j
		}
	}
	return in
}

// TestEstimateReferenceEquivalence: on moldable.Random instances, on
// tie-heavy copies of a few of their jobs, and on mixed instances of
// the bisection-path job types, with m from 40 to 2^30, the search
// equals the reference exactly.
func TestEstimateReferenceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 0))
	tieRng := rand.New(rand.NewPCG(48, 0))
	mixRng := rand.New(rand.NewPCG(49, 0))
	for _, m := range []int{40, 41, 1 << 10, 1 << 16, 1 << 20, 1 << 30} {
		for it := 0; it < 12; it++ {
			n := 1 + rng.IntN(64)
			in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
			checkEquivalent(t, in, fmt.Sprintf("m=%d it=%d n=%d", m, it, n))
			n = 1 + tieRng.IntN(64)
			checkEquivalent(t, tiedInstance(tieRng, n, m), fmt.Sprintf("m=%d it=%d n=%d tied", m, it, n))
			n = 1 + mixRng.IntN(64)
			checkEquivalent(t, mixedInstance(mixRng, n, m), fmt.Sprintf("m=%d it=%d n=%d mixed", m, it, n))
		}
	}
}

// FuzzEstimateEquivalence extends the reference check to arbitrary
// shapes with m ≤ 2^30; shape%3 selects moldable.Random, a
// tiedInstance or a mixedInstance.
func FuzzEstimateEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		for _, m := range []uint32{40, 41, 1 << 10, 1 << 16, 1 << 20, 1 << 30} {
			for shape := uint8(0); shape < 3; shape++ {
				f.Add(uint8(seed*9), m, seed, shape)
			}
		}
	}
	f.Fuzz(func(t *testing.T, n uint8, m uint32, seed uint64, shape uint8) {
		nn := 1 + int(n)%64
		mm := min(max(int(m), 1), 1<<30)
		var in *moldable.Instance
		switch shape % 3 {
		case 0:
			in = moldable.Random(moldable.GenConfig{N: nn, M: mm, Seed: seed})
		case 1:
			in = tiedInstance(rand.New(rand.NewPCG(seed, 1)), nn, mm)
		default:
			in = mixedInstance(rand.New(rand.NewPCG(seed, 2)), nn, mm)
		}
		checkEquivalent(t, in, fmt.Sprintf("n=%d m=%d seed=%d shape=%d", nn, mm, seed, shape%3))
	})
}

// --- the reference copies ---

// refGammaStrict is min{p : t_j(p) < t}, the strict count the reference
// looks up; the gamma tests pin gamma.Search to the paper's bisection.
func refGammaStrict(j moldable.Job, m int, t moldable.Time) (int, bool) {
	g, _, _, ok := gamma.Search(j, m, t, true)
	return g, ok
}

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
					g1, ok := refGammaStrict(in.Jobs[i], m, tmed.v)
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
					g1, ok := refGammaStrict(in.Jobs[i], m, tmed.v)
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
		if g, ok := refGammaStrict(j, m, vhat); ok {
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
