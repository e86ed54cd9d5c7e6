package fast

import (
	"repro/internal/arena"
	"repro/internal/compress"
	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/shelves"
)

// Alg3 is the (3/2+ε)-dual algorithm of §4.3: jobs are rounded to
// O(poly(1/δ)·polylog(δm)) item types (processor counts geometrically
// below-rounded above b, processing times rounded on geom(s/2, s, 1+4ρ),
// small profits rounded on geom(δd/2, bd/2, 1+δ/b)), the shelf-1
// selection becomes a bounded knapsack solved through container items
// and the compressible-knapsack Algorithm 2, and the schedule is built
// at d′ = (1+δ)²d. With Buckets=true the transformation rules use the
// O(1/δ)-bucket variant of §4.3.3, making the whole dual call linear
// in n.
type Alg3 struct {
	In      *moldable.Instance
	Eps     float64 // ε ∈ (0, 1]
	Buckets bool    // §4.3.3 linear variant
	Stats   Alg3Stats
	// Scratch, when non-nil, makes Try reuse the typing, knapsack, and
	// schedule buffers across probes; the returned schedule is then
	// owned by the scratch (see shelves.Scratch). Nil allocates per
	// Try.
	Scratch *Scratch
}

// Alg3Stats aggregates per-call diagnostics.
type Alg3Stats struct {
	Tries       int
	Types       int64 // item types across calls
	Containers  int64
	PairsComp   int64
	PairsIncomp int64
}

// Guarantee returns the dual factor: 3/2·(1+δ)² for the heap variant and
// (3/2+δ)(1+δ)² for the bucket variant (the one special-case column may
// exceed the 3τ/2 horizon by the rounding slack). Both are ≤ 3/2+ε for
// δ = ε/5 and ε ≤ 1.
func (a *Alg3) Guarantee() float64 {
	delta := a.Eps / 5
	if a.Buckets {
		return (1.5 + delta) * (1 + delta) * (1 + delta)
	}
	return 1.5 * (1 + delta) * (1 + delta)
}

// typeKey identifies an item type (§4.3.1). Integer grid indices make it
// a valid map key.
type typeKey struct {
	narrow bool // narrow in shelf S2 (γ_j(d/2) < b)
	g1     int  // rounded shelf-1 count γˇ_j(d)
	g2     int  // rounded shelf-2 count γˇ_j(d/2); 0 for narrow types
	pIdx   int  // profit grid index for narrow types; -1 = zero profit
	t1Idx  int  // time grid indices for wide types
	t2Idx  int
}

// roundCount rounds a processor count down on the geometric grid when
// it exceeds b (a package-level helper, not a closure, so the hot path
// allocates nothing).
//
//sched:hotpath
func roundCount(countGrid []float64, b, g int) int {
	if g <= b {
		return g
	}
	i := knapsack.RoundDownIdx(countGrid, float64(g))
	if i < 0 {
		return g
	}
	return int(countGrid[i])
}

// Try implements one dual round of Algorithm 3.
//
//sched:hotpath
//sched:owns-result
func (a *Alg3) Try(d moldable.Time) (*schedule.Schedule, bool) {
	a.Stats.Tries++
	sc := a.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	in := a.In
	delta := a.Eps / 5
	l16 := compress.NewLemma16(delta)
	rho, b := l16.Rho, l16.B
	dprime := (1 + delta) * (1 + delta) * d

	part := &sc.Shelves.Part
	if !shelves.Compute(part, in, d) {
		return nil, false
	}
	capacity := in.M - part.MandSize()
	if capacity < 0 {
		return nil, false
	}
	shelf1 := append(sc.shelf1[:0], part.Mand...)

	if len(part.Opt) > 0 && capacity > 0 {
		countGrid := knapsack.GeomAppend(sc.countGrid[:0], float64(b), float64(in.M), 1+rho)
		timeGridD := knapsack.GeomAppend(sc.timeGridD[:0], d/2, d, 1+4*rho)
		timeGridD2 := knapsack.GeomAppend(sc.timeGridD2[:0], d/4, d/2, 1+4*rho)
		profitGrid := knapsack.GeomAppend(sc.profitGrid[:0], delta*d/2, float64(b)*d/2, 1+delta/float64(b))
		sc.countGrid, sc.timeGridD, sc.timeGridD2, sc.profitGrid = countGrid, timeGridD, timeGridD2, profitGrid

		// Group the optional jobs into item types. The per-type job
		// lists are a flat counting sort (typeIdx → offsets →
		// jobsByType) instead of nested slices, so the whole pass
		// reuses four scratch buffers.
		if sc.typeOf == nil {
			sc.typeOf = make(map[typeKey]int32) //schedlint:ignore hotalloc one-time warm-up growth: guarded so steady-state reuse never re-allocates
		}
		typeOf := sc.typeOf
		clear(typeOf)
		types := sc.types[:0]
		typeIdx := arena.Grow(sc.typeIdx, len(part.Opt))
		for k, j := range part.Opt {
			g1, g2 := part.G1[j], part.G2[j]
			rg1, rg2 := roundCount(countGrid, b, g1), roundCount(countGrid, b, g2)
			var key typeKey
			var profit float64
			if rg2 < b {
				// narrow in S2 ⇒ also narrow in S1 (γ1 ≤ γ2 < b): round
				// the original profit v_j(d) directly (Eq. 26).
				v := part.Profit(in, j)
				pIdx := -1
				if v >= delta*d/2 {
					if i := upIdx(profitGrid, v); i >= 0 {
						pIdx = i
						profit = profitGrid[i]
					}
				}
				key = typeKey{narrow: true, g1: rg1, pIdx: pIdx}
			} else {
				// wide in S2: profit = saved work in rounded quantities.
				t1 := in.Jobs[j].Time(g1)
				t2 := in.Jobs[j].Time(g2)
				i1 := knapsack.RoundDownIdx(timeGridD, t1)
				i2 := knapsack.RoundDownIdx(timeGridD2, t2)
				if i1 < 0 {
					i1 = 0
				}
				if i2 < 0 {
					i2 = 0
				}
				profit = timeGridD2[i2]*float64(rg2) - timeGridD[i1]*float64(rg1)
				if profit < 0 {
					profit = 0
				}
				key = typeKey{g1: rg1, g2: rg2, t1Idx: i1, t2Idx: i2}
			}
			ti, seen := typeOf[key]
			if !seen {
				ti = int32(len(types))
				typeOf[key] = ti
				types = append(types, knapsack.Type{
					Size:         rg1,
					Profit:       profit,
					Compressible: rg1 >= b,
				})
			}
			types[ti].Count++
			typeIdx[k] = ti
		}
		sc.types, sc.typeIdx = types, typeIdx
		a.Stats.Types += int64(len(types))

		var incompTotal float64
		for _, t := range types {
			if !t.Compressible {
				incompTotal += float64(t.Size) * float64(t.Count)
			}
		}
		betaMax := float64(capacity)
		if incompTotal < betaMax {
			betaMax = incompTotal
		}
		nbar := capacity/b + 2
		sol, err := knapsack.SolveBounded(types, capacity, rho, float64(b), betaMax, nbar, &sc.Knap)
		if err != nil {
			return nil, false
		}
		a.Stats.PairsComp += int64(sol.Stats.PairsComp)
		a.Stats.PairsIncomp += int64(sol.Stats.PairsIncomp)

		// Counting sort: group the Opt jobs by type, preserving their
		// relative order within each type (stable, like the old
		// per-type append).
		typeOff := arena.Zeroed(sc.typeOff, len(types)+1)
		for _, ti := range typeIdx {
			typeOff[ti+1]++
		}
		for t := 1; t <= len(types); t++ {
			typeOff[t] += typeOff[t-1]
		}
		jobsByType := arena.Grow(sc.jobsByType, len(part.Opt))
		for k, ti := range typeIdx {
			jobsByType[typeOff[ti]] = int32(part.Opt[k])
			typeOff[ti]++
		}
		sc.typeOff, sc.jobsByType = typeOff, jobsByType
		// typeOff[ti] is now the END of type ti's group; its start is
		// end − group size.
		for ti, cnt := range sol.CountByType {
			end := int(typeOff[ti])
			start := end - types[ti].Count
			if cnt > types[ti].Count {
				cnt = types[ti].Count
			}
			for _, j := range jobsByType[start : start+cnt] {
				shelf1 = append(shelf1, int(j))
			}
		}
	}
	sc.shelf1 = shelf1

	opts := shelves.Options{}
	if a.Buckets {
		opts = shelves.Options{Buckets: true, BucketRatio: 1 + 4*rho}
	}
	if !shelves.Build(&sc.buildRes, in, dprime, shelf1, opts, &sc.Shelves) {
		return nil, false
	}
	return sc.buildRes.Schedule, true
}

// upIdx returns the index of the smallest grid element ≥ v, or -1.
//
//sched:hotpath
func upIdx(g []float64, v float64) int {
	lo, hi := 0, len(g)-1
	if len(g) == 0 || v > g[hi] {
		return -1
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g[mid] >= v {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
