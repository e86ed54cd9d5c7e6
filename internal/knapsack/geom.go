// Package knapsack implements the knapsack machinery of Jansen & Land
// §4.2: Lawler-style pair lists with dominance pruning, a dense dynamic
// program (the O(nm) baseline of Mounié–Rapine–Trystram), geometric
// value grids (Definition 13), the adaptive normalization of Lemma 12,
// the knapsack problem with compressible items (Algorithm 2 /
// Theorem 15), and the bounded-knapsack container transformation used by
// Algorithm 3.
package knapsack

import "math"

// GeomAppend appends the geometric progression of Definition 13,
// geom(L, U, x) = {L·x^i | i = 0..⌈log_x(U/L)⌉}, onto dst (usually
// dst[:0] of a reused buffer, or nil for a fresh slice), so hot callers
// rebuild their grids without allocating. The first element is L and
// the last is the first power ≥ U. Requires 0 < L, L ≤ U, x > 1;
// invalid parameters return dst unchanged. By Lemma 14,
// |geom(L,U,x)| = O(log(U/L)/(x−1)) for 1 < x < 2.
//
// Elements track the closed form L·x^i instead of drifting with a pure
// running product: repeated multiplication loses up to one ulp per
// step, so on long grids (the per-probe profit grids reach ~10⁵
// elements) the stored values disagree with L·x^i by thousands of
// ulps, RoundDownIdx misclassifies values that are exactly L·x^i, and
// the last element can land just below U where the closed form clears
// it. Computing every element with math.Pow restores exactness but is
// ~30× slower per element, so the builder resynchronizes to the closed
// form L·math.Pow(x, i) once per 32-element block and multiplies
// within the block: every element stays within ~32 ulps of the closed
// form, independent of the index. The monotonicity guard covers
// adjacent elements rounding onto non-increasing floats.
//
//sched:hotpath
func GeomAppend(dst []float64, L, U, x float64) []float64 {
	if !(L > 0) || !(U >= L) || !(x > 1) {
		return dst
	}
	const resync = 32
	v := L
	for i := 0; ; i++ {
		if i%resync == 0 && i > 0 {
			v = L * math.Pow(x, float64(i))
		}
		if i > 0 {
			if prev := dst[len(dst)-1]; v <= prev {
				v = math.Nextafter(prev, math.Inf(1))
			}
		}
		dst = append(dst, v)
		if v >= U {
			break
		}
		v *= x
	}
	return dst
}

// RoundDownIdx returns the index of the largest grid element ≤ a, or -1
// when a is below the first element (gˇr undefined).
//
//sched:hotpath
func RoundDownIdx(g []float64, a float64) int {
	lo, hi := 0, len(g)-1
	if len(g) == 0 || a < g[0] {
		return -1
	}
	for lo < hi { // invariant: g[lo] ≤ a; find last such index
		mid := lo + (hi-lo+1)/2
		if g[mid] <= a {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
