package knapsack

import "math"

// Test references: the exact pair-list solver the DP results are
// checked against, and the two grid roundings of the paper's gˇr/gˆr
// that RoundDownIdx implements for the algorithms.

// SolvePairs solves the same problem with a pair list (no rounding).
// Useful when C is huge but few distinct sizes occur. Returns selected
// IDs and profit.
func SolvePairs(items []Item, C int) ([]int, float64) {
	l := NewPairList()
	for idx, it := range items {
		l.Add(idx, float64(it.Size), it.Profit, float64(C), nil)
	}
	profit, node := l.Best(float64(C))
	var sel []int
	for _, idx := range l.BacktrackAppend(nil, node) {
		sel = append(sel, items[idx].ID)
	}
	return sel, profit
}

// RoundDown is gˇr(a, L, U, x) on a precomputed grid: the largest grid
// value ≤ a. Returns NaN when undefined.
func RoundDown(g []float64, a float64) float64 {
	i := RoundDownIdx(g, a)
	if i < 0 {
		return math.NaN()
	}
	return g[i]
}

// RoundUp is gˆr: the smallest grid value ≥ a. Returns NaN when a exceeds
// the last grid value.
func RoundUp(g []float64, a float64) float64 {
	if len(g) == 0 || a > g[len(g)-1] {
		return math.NaN()
	}
	lo, hi := 0, len(g)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if g[mid] >= a {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return g[lo]
}
