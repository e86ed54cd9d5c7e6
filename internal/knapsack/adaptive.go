package knapsack

import "slices"

// Grid is the adaptive normalization interval structure of Lemma 12.
// The capacity range [α_0, α_k] is partitioned into intervals
// I^(i) = [α_{i-1}, α_i), each subdivided into subintervals of width
// U_i = ρ/((1−ρ)·n̄)·α_i. Sizes are normalized down to their
// subinterval's left endpoint; because at most n̄ compressible items are
// ever in a solution, the total underestimation is at most n̄·U_i, which
// the compression of the items absorbs: (1−ρ)(α_i + n̄·U_i) = α_i
// (Eq. 14).
type Grid struct {
	points []float64 // sorted subinterval left endpoints
	amax   float64
}

// NewGrid builds the structure for capacities A = {α_1 < … < α_k} (the
// geometric progression of Algorithm 2), lower bound alpha0 = α_0,
// normalization factor rho, and solution-size bound nbar ≥ 1.
func NewGrid(A []float64, alpha0, rho float64, nbar int) *Grid {
	g := &Grid{}
	g.Reset(A, alpha0, rho, nbar)
	return g
}

// Reset rebuilds the structure in place, reusing the point buffer so a
// warm Grid re-parameterizes without allocating.
func (g *Grid) Reset(A []float64, alpha0, rho float64, nbar int) {
	if nbar < 1 {
		nbar = 1
	}
	g.points = g.points[:0]
	g.amax = 0
	if len(A) == 0 {
		return
	}
	g.amax = A[len(A)-1]
	pts := append(g.points, alpha0)
	prev := alpha0
	for _, ai := range A {
		ui := rho / ((1 - rho) * float64(nbar)) * ai
		if ui <= 0 {
			continue
		}
		lmin := int(prev / ui) //schedlint:ignore fpconv grid endpoint; the loop clamps p to [prev, ai], so an ulp off-by-one only adds a duplicate clamped point
		lmax := int(ai / ui)   //schedlint:ignore fpconv grid endpoint; see lmin above — clamped enumeration tolerates either rounding
		for l := lmin; l <= lmax; l++ {
			p := float64(l) * ui
			if p < prev {
				p = prev
			}
			if p >= ai {
				break
			}
			pts = append(pts, p)
		}
		pts = append(pts, ai)
		prev = ai
	}
	slices.Sort(pts)
	// dedupe
	out := pts[:0]
	for i, p := range pts {
		if i == 0 || p != pts[i-1] {
			out = append(out, p)
		}
	}
	g.points = out
}

// Norm rounds s down to the nearest grid point ≤ s. Values below the
// first point (or above α_k) are returned unchanged: the former cannot
// occur for sums of compressible sizes ≥ α_0, the latter are discarded
// by the capacity check anyway.
//
//sched:hotpath
func (g *Grid) Norm(s float64) float64 {
	if len(g.points) == 0 || s < g.points[0] || s > g.amax {
		return s
	}
	i := RoundDownIdx(g.points, s)
	return g.points[i]
}

// NumPoints returns the number of subinterval endpoints — O(n̄·|A|) by
// Lemma 12 (Eq. 16 bounds each interval's subinterval count by
// (1−ρ)n̄+1).
func (g *Grid) NumPoints() int { return len(g.points) }

// Points exposes the grid for rendering (Figure 4).
func (g *Grid) Points() []float64 { return g.points }
