package knapsack

// PairList is Lawler's dynamic program over (profit, size) pairs with
// dominance pruning (§4.2.3): after each item, a pair (p, s) survives
// only if no other pair has at least the profit with at most the size.
// The frontier is kept sorted by size ascending with strictly increasing
// profit. All created pairs live in an arena with parent pointers, so an
// optimal selection can be backtracked from any frontier node.
//
// Sizes are float64: integer processor counts embed exactly, and the
// adaptive normalization of Lemma 12 produces fractional grid sizes.
type PairList struct {
	arena    []pairNode
	frontier []int32 // arena indices, size ascending, profit strictly increasing
	scratch  []int32
}

type pairNode struct {
	profit float64
	size   float64
	item   int32 // item added to create this pair; -1 for the root
	parent int32 // arena index of predecessor; -1 for the root
}

// NewPairList returns a list containing only the empty selection (0,0).
func NewPairList() *PairList {
	l := &PairList{}
	l.Reset()
	return l
}

// Reset restores the list to the empty selection, keeping every buffer
// (arena, frontier, scratch) so a warm PairList runs its DP without
// allocating (the scratch-reuse discipline of internal/arena).
func (l *PairList) Reset() {
	l.arena = append(l.arena[:0], pairNode{0, 0, -1, -1})
	l.frontier = append(l.frontier[:0], 0)
	l.scratch = l.scratch[:0]
}

// Len returns the current frontier length.
func (l *PairList) Len() int { return len(l.frontier) }

// Pairs returns the total number of pairs created (a cost measure).
func (l *PairList) Pairs() int { return len(l.arena) }

// Add merges item (size, profit) into the list. New sizes are first
// passed through norm (nil for identity), which must be monotone
// non-decreasing; sizes exceeding cap are discarded. item is an opaque
// tag returned by Backtrack.
//
//sched:hotpath
func (l *PairList) Add(item int, size, profit, cap float64, norm func(float64) float64) {
	// Non-positive-profit items never help (we maximize and the empty
	// selection is always available); oversized items never fit.
	if profit <= 0 || size > cap {
		return
	}
	old := l.frontier
	merged := l.scratch[:0]
	// Walk the "shifted" list (old + item) and the old list in size
	// order, keeping only pairs that strictly improve profit.
	oi := 0 // index into old (unshifted)
	bestProfit := -1.0
	push := func(idx int32) {
		n := l.arena[idx]
		if n.profit > bestProfit {
			merged = append(merged, idx)
			bestProfit = n.profit
		}
	}
	for si := 0; si < len(old); si++ {
		sn := l.arena[old[si]]
		ns := sn.size + size
		if norm != nil {
			ns = norm(ns)
		}
		if ns > cap {
			break // shifted list is size-sorted; the rest are larger
		}
		np := sn.profit + profit
		// emit unshifted pairs with size ≤ ns first (stability: prefer
		// the smaller-size pair on ties via strict profit improvement)
		for oi < len(old) && l.arena[old[oi]].size <= ns {
			push(old[oi])
			oi++
		}
		if np > bestProfit {
			l.arena = append(l.arena, pairNode{np, ns, int32(item), old[si]})
			merged = append(merged, int32(len(l.arena)-1))
			bestProfit = np
		}
	}
	for ; oi < len(old); oi++ {
		push(old[oi])
	}
	// merged may be out of order when norm collapses sizes; restore the
	// invariant (sizes ascending). Normalization is monotone so this is
	// a near-sorted sequence; insertion sort handles it in near-linear
	// time without the closure/boxing allocations of sort.Slice.
	sorted := true
	for i := 1; i < len(merged); i++ {
		if l.arena[merged[i]].size < l.arena[merged[i-1]].size {
			sorted = false
			break
		}
	}
	if !sorted {
		for i := 1; i < len(merged); i++ {
			x := merged[i]
			xs, xp := l.arena[x].size, l.arena[x].profit
			k := i - 1
			for k >= 0 {
				ks, kp := l.arena[merged[k]].size, l.arena[merged[k]].profit
				if ks < xs || (ks == xs && kp <= xp) {
					break
				}
				merged[k+1] = merged[k]
				k--
			}
			merged[k+1] = x
		}
		// re-apply dominance
		out := merged[:0]
		bp := -1.0
		for _, idx := range merged {
			if l.arena[idx].profit > bp {
				out = append(out, idx)
				bp = l.arena[idx].profit
			}
		}
		merged = out
	}
	// Swap buffers instead of copying: the retired frontier becomes the
	// next call's scratch, so steady-state Adds allocate nothing.
	l.frontier, l.scratch = merged, old[:0]
}

// Best returns the maximum profit over frontier pairs with size ≤ cap
// and the arena node attaining it (-1 when none, profit 0 for the empty
// selection which always fits cap ≥ 0).
//
//sched:hotpath
func (l *PairList) Best(cap float64) (float64, int32) {
	// frontier sizes ascending, profits ascending: the answer is the last
	// pair with size ≤ cap.
	lo, hi := -1, len(l.frontier)-1
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if l.arena[l.frontier[mid]].size <= cap {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < 0 {
		return 0, -1
	}
	n := l.arena[l.frontier[lo]]
	return n.profit, l.frontier[lo]
}

// Size returns the (normalized) size stored at an arena node.
func (l *PairList) Size(node int32) float64 {
	if node < 0 {
		return 0
	}
	return l.arena[node].size
}

// BacktrackAppend appends the item tags on the path from node to the
// root — the selected items of the solution represented by node — onto
// dst, enabling allocation-free backtracking into a reused buffer (nil
// for a fresh slice).
func (l *PairList) BacktrackAppend(dst []int, node int32) []int {
	for node >= 0 {
		n := l.arena[node]
		if n.item >= 0 {
			dst = append(dst, int(n.item))
		}
		node = n.parent
	}
	return dst
}
