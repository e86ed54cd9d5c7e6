// Package fast implements the paper's improved (3/2+ε)-dual algorithms:
//
//   - Alg1 (§4.2.5): knapsack with compressible items, running time
//     O(n(log m + n log εm)) per dual call — logarithmic in m.
//   - Alg3 (§4.3): bounded knapsack over rounded item types,
//     O(n/ε²·log m(log m/ε + log³ εm) + n log n) per dual call.
//   - Linear (§4.3.3): Alg3 with bucketed transformation rules, removing
//     the n log n term — running time linear in n.
//   - Conv (arXiv:2303.01414): Alg1 with the shelf-1 knapsack solved by
//     the convolution engine (NewConv).
//
// Each accepts a target makespan d and either produces a feasible
// schedule of makespan ≤ (3/2+ε)d or certifies d < OPT. The package
// exports only these duals: internal/core combines them with the
// Ludwig–Tiwari estimator and the dual search to realize Theorem 3, and
// switches to the FPTAS dual for m ≥ 16n as §4.2.5 prescribes.
package fast

import (
	"repro/internal/compress"
	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/shelves"
)

// Alg1 is the (3/2+ε)-dual algorithm of §4.2.5 based on the knapsack
// with compressible items (Algorithm 1 + Algorithm 2 of the paper).
type Alg1 struct {
	In  *moldable.Instance
	Eps float64 // ε ∈ (0, 1]
	// Stats accumulates knapsack cost counters across Try calls.
	Stats Alg1Stats
	// Scratch, when non-nil, makes Try reuse partition, knapsack, and
	// schedule buffers across probes; the returned schedule is then
	// owned by the scratch (see shelves.Scratch). Nil allocates per
	// Try.
	Scratch *Scratch
	// conv selects the convolution engine for the shelf-1 knapsack
	// (the Conv algorithm; see NewConv).
	conv bool
}

// ConvMinM is the least machine count the Conv algorithm accepts. A
// shelf-1 item is compressible only when γ_j(d) ≥ 1/ρ = 12/ε (ρ = ε/12
// of the outer ε), at least 40 processors for every ε ≤ 0.3; below 40
// machines the class grid is empty or nearly so, and the algorithm
// would silently degenerate to Alg1's plain pair-list DP — out of its
// regime. internal/core then answers with a scherr.RegimeError
// (MinM = ConvMinM), which the online runtime's pinned-algorithm path
// turns into the MRT → LT2 fallback.
const ConvMinM = 40

// NewConv returns the Conv dual, after Grage, Jansen & Ohnesorge,
// "Improved Algorithms for Monotone Moldable Job Scheduling using
// Compression and Convolution" (arXiv:2303.01414): Alg1's dual round
// with the shelf-1 knapsack solved by knapsack.SolveConv — wide jobs
// are rounded onto the geometric class grid of the Lemma-16
// compression classes and the selection is assembled from per-class
// concave profiles by iterated (max,+)-convolution instead of the
// Lawler pair-list DP. The engine honours the identical Theorem-15
// contract, so the guarantee is Alg1's. It is returned by value so a
// caller can keep it in its own scratch.
func NewConv(in *moldable.Instance, eps float64, sc *Scratch) Alg1 {
	return Alg1{In: in, Eps: eps, Scratch: sc, conv: true}
}

// Alg1Stats aggregates per-call diagnostics.
type Alg1Stats struct {
	Tries       int
	PairsComp   int64
	PairsIncomp int64
	NumAlphas   int64
}

// Guarantee returns 3/2·(1+4ρ) = 3/2+ε for ρ = ε/6.
func (a *Alg1) Guarantee() float64 { return 1.5 * (1 + 4*a.Eps/6) }

// Try implements one dual round: solve the compressible knapsack at
// target d with ρ = ε/6, then build the three-shelf schedule at
// d′ = (1+4ρ)d (Corollary 10). Compression is used only in the analysis:
// the schedule itself allots γ_j(d′) processors.
//
//sched:hotpath
//sched:owns-result
func (a *Alg1) Try(d moldable.Time) (*schedule.Schedule, bool) {
	a.Stats.Tries++
	solve := knapsack.Solve
	if a.conv {
		solve = knapsack.SolveConv
	}
	return tryCompressibleShelf1(a.In, d, a.Eps/6, a.Scratch, &a.Stats, solve)
}

// tryCompressibleShelf1 is Alg1's dual round, parameterized by the
// engine that solves the shelf-1 knapsack with compressible items
// (Algorithm 2's pair lists, or the convolution engine for Conv; both
// honour the Theorem-15 contract): partition at target d,
// optional jobs become knapsack items (compressible ⇔ γ_j(d) ≥ 1/ρ),
// solve, build the three-shelf schedule at d′ = (1+4ρ)d. SolveConv
// ignores Problem.NBar, so passing Alg1's bound is harmless there.
//
//sched:hotpath
//sched:owns-result
func tryCompressibleShelf1(in *moldable.Instance, d moldable.Time, rho float64,
	sc *Scratch, stats *Alg1Stats,
	solve func(knapsack.Problem, *knapsack.Scratch) (knapsack.Solution, error)) (*schedule.Schedule, bool) {
	if sc == nil {
		sc = &Scratch{}
	}
	dprime := (1 + 4*rho) * d
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
		threshold := compress.Threshold(rho) // compressible ⇔ γ_j(d) ≥ 1/ρ
		items := sc.items[:0]
		comp := sc.comp[:0]
		var incompTotal float64
		for _, j := range part.Opt {
			items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
			c := part.G1[j] >= threshold
			comp = append(comp, c)
			if !c {
				incompTotal += float64(part.G1[j])
			}
		}
		sc.items, sc.comp = items, comp
		betaMax := float64(capacity)
		if incompTotal < betaMax {
			betaMax = incompTotal
		}
		nbar := int(rho*float64(capacity)) + 2 //schedlint:ignore fpconv capacity bound with +2 slack (Eq. 16); the slack absorbs any ulp truncation
		sol, err := solve(knapsack.Problem{
			Items:        items,
			Compressible: comp,
			C:            capacity,
			RhoFull:      rho,
			AlphaMin:     float64(threshold),
			BetaMax:      betaMax,
			NBar:         nbar,
		}, &sc.Knap)
		if err != nil {
			return nil, false
		}
		stats.PairsComp += int64(sol.Stats.PairsComp)
		stats.PairsIncomp += int64(sol.Stats.PairsIncomp)
		stats.NumAlphas += int64(sol.Stats.NumAlphas)
		shelf1 = append(shelf1, sol.Selected...)
	}
	sc.shelf1 = shelf1
	if !shelves.Build(&sc.buildRes, in, dprime, shelf1, shelves.Options{}, &sc.Shelves) {
		return nil, false
	}
	return sc.buildRes.Schedule, true
}
