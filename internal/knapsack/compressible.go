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
//sched:owns-result
func Solve(p Problem, sc *Scratch) (Solution, error) {
	return solve(p, sc, false)
}

// solve is the Algorithm-2 frame of Solve and SolveConv: validation,
// the item split, the βmax/αmin clamps, the α-grid, the incompressible
// pair-list DP, the combine loop and the capacity check. conv selects
// the wide-side profile over the compressible items: the pair-list DP
// with adaptive normalization (Solve) or the class convolution engine
// of conv.go (SolveConv).
//
//sched:owns-result
func solve(p Problem, sc *Scratch, conv bool) (Solution, error) {
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

	// Query capacities get a tiny upward nudge: β(α̃) = C−(1−ρ)α̃ is an
	// exact integer in theory (e.g. C−αmin) but floating-point rounding
	// can land it one ulp below, hiding the boundary pair. Item sizes are
	// integers, so the nudge cannot admit an oversized selection.
	slack := 1e-9 * (C + 1)

	// The wide-side profile answers Best(α̃) queries; root is the
	// convolution engine's merge-tree root.
	wide, root := false, int32(-1)
	if len(A) > 0 {
		if conv {
			root = sc.buildConvProfile(&p, comp, rho, C+slack, &stats)
			wide = root >= 0
		} else {
			sc.buildPairProfile(&p, comp, A, alphaMin, rho, &stats)
			wide = true
		}
	}

	// Combine: for each α̃ ∈ A ∪ {0}, wide profit up to α̃, narrow profit
	// up to β(α̃) = C − (1−ρ)α̃ (βmax for α̃=0). A plain loop (index −1
	// standing for α̃ = 0) rather than a closure, so the captured state
	// stays on the stack.
	bestProfit := math.Inf(-1)
	var bestWide, bestInc int32 = -1, -1
	bestAlpha := 0.0
	for ai := -1; ai < len(A); ai++ {
		alpha := 0.0
		if ai >= 0 {
			alpha = A[ai]
		}
		var pw float64
		var nw int32 = -1
		if alpha > 0 && wide {
			if conv {
				pw, nw = sc.convBest(root, alpha+slack)
			} else {
				pw, nw = sc.compList.Best(alpha + slack)
			}
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
		if pw+pi > bestProfit {
			bestProfit = pw + pi
			bestWide, bestInc = nw, ni
			bestAlpha = alpha
		}
	}
	stats.ChosenAlpha = bestAlpha

	sol := Solution{Profit: math.Max(bestProfit, 0), Stats: stats}
	// Backtrack both sides into the shared selection buffer, wide side
	// first. The two item sets are disjoint (every item is either
	// compressible or not) and a path contains each item at most once,
	// so no dedup is needed.
	sc.selected = sc.selected[:0]
	if wide && bestWide >= 0 {
		if conv {
			sc.backtrackConv(&p, root, bestWide, &sol)
		} else {
			sc.backtrackPairs(&p, &sc.compList, bestWide, 1-p.RhoFull, &sol)
		}
	}
	sc.backtrackPairs(&p, incList, bestInc, 1, &sol)
	sol.Selected = sc.selected
	// Theorem 15 guarantees the compressed size fits; tolerate only float
	// noise here and fail loudly otherwise (callers rely on it).
	if sol.SizeCompressed > C*(1+1e-9) {
		return sol, fmt.Errorf("knapsack: compressed size %.6f exceeds capacity %d", sol.SizeCompressed, p.C)
	}
	return sol, nil
}

// buildPairProfile is Algorithm 2's wide side: the compressible
// pair-list DP with the adaptive normalization of Lemma 12 over the
// α-grid A (non-empty, so comp is too).
func (sc *Scratch) buildPairProfile(p *Problem, comp []int, A []float64, alphaMin, rho float64, stats *Stats) {
	// No solution can hold more compressible items than exist: capping n̄
	// keeps the Lemma-12 grid at O(n̄·|A|) points without weakening the
	// underestimation bound.
	nbar := min(max(p.NBar, 1), len(comp))
	grid := &sc.grid
	grid.Reset(A, alphaMin, rho, nbar)
	stats.GridPoints = grid.NumPoints()
	compList := &sc.compList
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

// backtrackPairs appends the items on l's path from node to the root
// to the selection, each contributing f·size to the compressed size
// (f = 1−ρ′ on the compressible side, 1 on the other).
func (sc *Scratch) backtrackPairs(p *Problem, l *PairList, node int32, f float64, sol *Solution) {
	for ; node >= 0; node = l.arena[node].parent {
		it := l.arena[node].item
		if it < 0 {
			continue
		}
		idx := int(it)
		sc.selected = append(sc.selected, p.Items[idx].ID)
		sol.SizeCompressed += f * float64(p.Items[idx].Size)
	}
}
