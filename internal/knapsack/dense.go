package knapsack

import "repro/internal/arena"

// Item is a 0/1 knapsack item with integer size and non-negative profit.
// ID is an opaque caller tag (job index, container index, …).
type Item struct {
	ID     int
	Size   int
	Profit float64
}

// SolveDense is the classical dense dynamic program: maximize Σ profit
// subject to Σ size ≤ C. O(n·C) time, n·(C+1) bits plus O(C) words of
// memory (per-item decision bitsets for backtracking). This is the
// knapsack the Mounié–Rapine–Trystram baseline runs — the very O(nm)
// bottleneck §4.2 is designed to avoid.
//
// Returns the selected item IDs and the optimal profit. The decision
// bitsets and DP row come from sc (as one flat allocation), so a warm
// Scratch runs the DP allocation-free; the returned selection then
// aliases the scratch. A nil scratch uses fresh buffers.
//
//sched:hotpath
//sched:owns-result
func SolveDense(items []Item, C int, sc *Scratch) ([]int, float64) {
	if sc == nil {
		sc = &Scratch{}
	}
	if C < 0 {
		return nil, 0
	}
	words := (C + 64) / 64
	bits := arena.Zeroed(sc.denseBits, words*len(items))
	sc.denseBits = bits
	dp := arena.Zeroed(sc.denseDP, C+1)
	sc.denseDP = dp
	for i, it := range items {
		if it.Profit <= 0 || it.Size > C || it.Size < 0 {
			continue
		}
		row := bits[i*words : (i+1)*words]
		for c := C; c >= it.Size; c-- {
			if v := dp[c-it.Size] + it.Profit; v > dp[c] {
				dp[c] = v
				row[c/64] |= 1 << (c % 64)
			}
		}
	}
	// backtrack
	best := 0
	for c := 1; c <= C; c++ {
		if dp[c] > dp[best] {
			best = c
		}
	}
	sel := sc.denseSel[:0]
	c := best
	for i := len(items) - 1; i >= 0; i-- {
		if bits[i*words+c/64]&(1<<(c%64)) != 0 {
			sel = append(sel, items[i].ID)
			c -= items[i].Size
		}
	}
	sc.denseSel = sel
	return sel, dp[best]
}
