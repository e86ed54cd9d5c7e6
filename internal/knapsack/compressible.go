package knapsack

import (
	"fmt"
	"math"

	"repro/internal/compress"
)

// Problem is an instance of the knapsack problem with compressible items
// (§4.2): items in the compressible set may be shrunk to (1−ρ′)·size,
// which Algorithm 2 exploits to treat their sizes approximately and
// still return a solution whose profit is at least the *uncompressed*
// optimum OPT(I, ∅, C, 0).
type Problem struct {
	Items        []Item
	Compressible []bool // per item; compressible items must have Size ≥ 1/ρ′
	C            int    // capacity (number of processors)
	RhoFull      float64
	// AlphaMin is a positive lower bound on any non-zero space used by
	// compressible items (e.g. the minimum compressible item size).
	AlphaMin float64
	// BetaMax is an upper bound on the space incompressible items can use
	// in any solution (e.g. min(C, total incompressible size)).
	BetaMax float64
	// NBar bounds the number of compressible items in any solution.
	NBar int
}

// Stats reports the cost drivers of a Solve call.
type Stats struct {
	NumAlphas    int // |A|, the geometric capacity grid (Lemma 14)
	GridPoints   int // adaptive normalization points (Lemma 12)
	PairsComp    int // pairs created in the compressible DP
	PairsIncomp  int // pairs created in the incompressible DP
	ChosenAlpha  float64
	CompFrontier int
	IncFrontier  int
}

// Solution of the compressible knapsack.
type Solution struct {
	Selected []int   // item IDs
	Profit   float64 // Σ profits ≥ OPT(I, ∅, C, 0)
	// SizeCompressed is Σ_{sel∩comp}(1−ρ′)·size + Σ_{sel∖comp} size ≤ C.
	SizeCompressed float64
	Stats          Stats
}

// Solve implements Algorithm 2. It guarantees (Theorem 15):
//   - profit ≥ the optimum of the ordinary knapsack (no compression), and
//   - the selection fits C once compressible items are compressed by ρ′.
//
// Internally it uses the half factor ρ (with (1−ρ)² = 1−ρ′): the
// geometric grid A approximates the space α available to compressible
// items within 1/(1−ρ), and the adaptive normalization underestimates
// sizes by at most n̄·U_i; both slacks together consume exactly the full
// compressibility ρ′.
//
// Buffers come from sc: a warm Scratch makes the whole call
// allocation-free, and the returned Solution.Selected aliases the
// scratch (valid until its next use). A nil scratch uses fresh
// buffers, making the result caller-owned.
//
// LOCK-STEP: SolveConv (conv.go) shares this function's Algorithm-2
// frame verbatim; apply frame fixes to both (see the note there).
//
//sched:owns-result
func Solve(p Problem, sc *Scratch) (Solution, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	if p.RhoFull <= 0 || p.RhoFull >= 1 {
		return Solution{}, fmt.Errorf("knapsack: rhoFull=%v out of range", p.RhoFull)
	}
	rho := compress.HalfFactor(p.RhoFull)
	C := float64(p.C)
	comp, incomp := sc.comp[:0], sc.incomp[:0] // item indices
	var incompTotal float64
	for i, it := range p.Items {
		if it.Size <= 0 {
			return Solution{}, fmt.Errorf("knapsack: item %d has size %d", i, it.Size)
		}
		if p.Compressible[i] {
			comp = append(comp, i)
		} else {
			incomp = append(incomp, i)
			incompTotal += float64(it.Size)
		}
	}
	sc.comp, sc.incomp = comp, incomp
	betaMax := p.BetaMax
	if betaMax <= 0 || betaMax > C {
		betaMax = C
	}
	if incompTotal < betaMax {
		betaMax = incompTotal
	}
	alphaMin := p.AlphaMin
	if alphaMin < C-betaMax {
		alphaMin = C - betaMax // line 1 of Algorithm 2
	}
	if alphaMin <= 0 {
		alphaMin = 1
	}
	nbar := p.NBar
	if nbar < 1 {
		nbar = 1
	}
	// No solution can hold more compressible items than exist: capping n̄
	// keeps the Lemma-12 grid at O(n̄·|A|) points without weakening the
	// underestimation bound.
	if len(comp) > 0 && nbar > len(comp) {
		nbar = len(comp)
	}

	var stats Stats
	// Capacity grid A = geom(αmin/(1−ρ), C, 1/(1−ρ)); every true α in
	// [αmin, C] has an α̃ ∈ A with α ≤ α̃ ≤ α/(1−ρ) (Eq. 17). When
	// αmin/(1−ρ) already exceeds C the set degenerates to that single
	// value (Definition 13 with a non-positive exponent range).
	A := sc.alphas[:0]
	if len(comp) > 0 && alphaMin <= C {
		lo := alphaMin / (1 - rho)
		hi := C
		if lo > hi {
			hi = lo
		}
		A = GeomAppend(A, lo, hi, 1/(1-rho))
	}
	sc.alphas = A
	stats.NumAlphas = len(A)

	// Incompressible one-pass DP up to betaMax (§4.2.4, first part).
	incList := &sc.incList
	incList.Reset()
	for _, i := range incomp {
		incList.Add(i, float64(p.Items[i].Size), p.Items[i].Profit, betaMax, nil)
	}
	stats.PairsIncomp = incList.Pairs()
	stats.IncFrontier = incList.Len()

	// Compressible DP with adaptive normalization over the grid.
	var compList *PairList
	if len(A) > 0 {
		grid := &sc.grid
		grid.Reset(A, alphaMin, rho, nbar)
		stats.GridPoints = grid.NumPoints()
		compList = &sc.compList
		compList.Reset()
		amax := A[len(A)-1]
		// Hoist the method value out of the loop: Add only calls norm,
		// so the bound closure stays on the stack.
		norm := grid.Norm
		for _, i := range comp {
			compList.Add(i, float64(p.Items[i].Size), p.Items[i].Profit, amax, norm)
		}
		stats.PairsComp = compList.Pairs()
		stats.CompFrontier = compList.Len()
	}

	// Combine: for each α̃ ∈ A ∪ {0}, β(α̃) = C − (1−ρ)α̃ (βmax for α̃=0).
	// A plain loop (index −1 standing for α̃ = 0) rather than a closure,
	// so the captured state stays on the stack.
	bestProfit := math.Inf(-1)
	var bestCompNode, bestIncNode int32 = -1, -1
	bestAlpha := 0.0
	// Query capacities get a tiny upward nudge: β(α̃) = C−(1−ρ)α̃ is an
	// exact integer in theory (e.g. C−αmin) but floating-point rounding
	// can land it one ulp below, hiding the boundary pair. Item sizes are
	// integers, so the nudge cannot admit an oversized selection.
	slack := 1e-9 * (C + 1)
	for ai := -1; ai < len(A); ai++ {
		alpha := 0.0
		if ai >= 0 {
			alpha = A[ai]
		}
		var pc float64
		var nc int32 = -1
		if alpha > 0 && compList != nil {
			pc, nc = compList.Best(alpha + slack)
		}
		beta := betaMax
		if alpha > 0 {
			beta = C - (1-rho)*alpha + slack
			if beta < 0 {
				beta = 0
			}
			if beta > betaMax {
				beta = betaMax
			}
		}
		pi, ni := incList.Best(beta)
		if pc+pi > bestProfit {
			bestProfit = pc + pi
			bestCompNode, bestIncNode = nc, ni
			bestAlpha = alpha
		}
	}
	stats.ChosenAlpha = bestAlpha

	sol := Solution{Profit: math.Max(bestProfit, 0), Stats: stats}
	// Backtrack both DPs into the shared selection buffer. The two item
	// sets are disjoint (every item is either compressible or not) and a
	// DP path contains each item at most once, so no dedup is needed.
	sc.selected = sc.selected[:0]
	for _, l := range [2]*PairList{compList, incList} {
		if l == nil {
			continue
		}
		node := bestCompNode
		if l == incList {
			node = bestIncNode
		}
		for ; node >= 0; node = l.arena[node].parent {
			it := l.arena[node].item
			if it < 0 {
				continue
			}
			idx := int(it)
			sc.selected = append(sc.selected, p.Items[idx].ID)
			if p.Compressible[idx] {
				sol.SizeCompressed += (1 - p.RhoFull) * float64(p.Items[idx].Size)
			} else {
				sol.SizeCompressed += float64(p.Items[idx].Size)
			}
		}
	}
	sol.Selected = sc.selected
	// Theorem 15 guarantees the compressed size fits; tolerate only float
	// noise here and fail loudly otherwise (callers rely on it).
	if sol.SizeCompressed > C*(1+1e-9) {
		return sol, fmt.Errorf("knapsack: compressed size %.6f exceeds capacity %d", sol.SizeCompressed, p.C)
	}
	return sol, nil
}
