package knapsack

// Convolution-accelerated knapsack with compressible items, after
// Grage, Jansen & Ohnesorge (arXiv:2303.01414): instead of the
// pair-list DP with adaptive normalization (Algorithm 2 / Lemma 12),
// the compressible (wide) items are rounded down onto the geometric
// class grid geom(s_min, C, 1+ρ) of Lemma 16 — O(log(C)/ρ) classes —
// and the wide-side profit profile is assembled by iterated
// (max,+)-convolution of per-class profiles.
//
// Per class the profile is concave by construction (the concave-hull
// fast path): all items of a class share the rounded size, so for any
// count k the optimal choice is the k most profitable items, and
// sorting a class by profit descending turns its whole profile into a
// prefix-sum staircase — no DP at all. Classes are then combined
// pairwise in a balanced (divide-and-conquer) merge tree; every merge
// is an exact (max,+)-convolution of two dominance-pruned staircases,
// capped at the capacity. The result answers Best(α) queries for the
// same Algorithm-2 combine loop over the α-grid that Solve uses.
//
// Where Algorithm 2 spends its compression budget ρ′ = 2ρ−ρ² on the
// α-grid (factor 1/(1−ρ)) plus the adaptive normalization (factor
// 1/(1−ρ) again via Lemma 12), SolveConv spends the second half on the
// class rounding instead: a selection whose rounded sizes sum to at
// most α̃ has true size < (1+ρ)·α̃, and compressing by ρ′ shrinks it to
// (1−ρ)²(1+ρ)·α̃ = (1−ρ)(1−ρ²)·α̃ < (1−ρ)·α̃ — exactly the wide-side
// budget β(α̃) = C − (1−ρ)·α̃ leaves room for. The profit side needs
// no slack at all: rounding sizes down only makes selections easier to
// fit, so the profile dominates the true (uncompressed) one and the
// Theorem-15 guarantee profit ≥ OPT(I, ∅, C, 0) carries over. See
// DESIGN.md §8 and §3 for where the constants deviate from the paper.

import (
	"math"
	"slices"
)

// convItem is one compressible item prepared for the class engine.
type convItem struct {
	class  int32 // index into the class grid
	item   int32 // index into Problem.Items
	profit float64
}

// convPoint is one dominant (size, profit) point of a profile
// staircase. On leaf nodes l is the item count taken from the class;
// on merge nodes l and r index the children's points, so a solution
// can be backtracked through the merge tree.
type convPoint struct {
	size   float64
	profit float64
	l, r   int32
}

// convRun is one non-empty class: convItems[start:end] sorted by
// profit descending, all with rounded size g.
type convRun struct {
	start, end int32
	g          float64
}

// convNode is one node of the convolution merge tree. Nodes live in
// the Scratch arena; pts retains its capacity across solves.
type convNode struct {
	pts      []convPoint
	lch, rch int32 // children node indices; -1 on leaves
	run      int32 // leaf: index into the run table; -1 on merges
}

// convItemCmp orders items by class, then profit descending (so each
// class run is its own concave prefix order), then item index for
// determinism. Package-level so sorting stays allocation-free.
func convItemCmp(a, b convItem) int {
	switch {
	case a.class < b.class:
		return -1
	case a.class > b.class:
		return 1
	case a.profit > b.profit:
		return -1
	case a.profit < b.profit:
		return 1
	case a.item < b.item:
		return -1
	case a.item > b.item:
		return 1
	}
	return 0
}

// convPointCmp orders candidate points by size ascending, profit
// descending, so a single linear pass applies dominance pruning.
func convPointCmp(a, b convPoint) int {
	switch {
	case a.size < b.size:
		return -1
	case a.size > b.size:
		return 1
	case a.profit > b.profit:
		return -1
	case a.profit < b.profit:
		return 1
	}
	return 0
}

// SolveConv solves the knapsack problem with compressible items via
// per-class concave profiles and iterated (max,+)-convolution (see the
// package comment above). It satisfies the same contract as Solve
// (Theorem 15): the returned profit is at least the optimum of the
// ordinary, uncompressed knapsack, and the selection fits C once every
// compressible item is compressed by RhoFull. Problem.NBar is not used
// (the engine has no adaptive normalization to bound).
//
// It runs Solve's Algorithm-2 frame with the convolution profile as
// the wide side. Buffers come from sc as in Solve.
//
//sched:owns-result
func SolveConv(p Problem, sc *Scratch) (Solution, error) {
	return solve(p, sc, true)
}

// newConvNode allocates a merge-tree node from the scratch arena,
// reusing retained point capacity. Callers must not hold *convNode
// pointers across calls — the arena may grow.
//
//sched:hotpath
func (sc *Scratch) newConvNode() int32 {
	if sc.convUsed == len(sc.convNodes) {
		sc.convNodes = append(sc.convNodes, convNode{})
	}
	n := &sc.convNodes[sc.convUsed]
	n.pts = n.pts[:0]
	n.lch, n.rch, n.run = -1, -1, -1
	sc.convUsed++
	return int32(sc.convUsed - 1)
}

// buildConvProfile rounds the compressible items onto the class grid,
// builds each class's concave prefix staircase, and combines the
// classes in a balanced merge tree. Returns the root node index, or -1
// when no compressible item can contribute.
//
//sched:hotpath
func (sc *Scratch) buildConvProfile(p *Problem, comp []int, rho, cap float64, stats *Stats) int32 {
	sc.convUsed = 0
	items := sc.convItems[:0]
	minSize := math.Inf(1)
	for _, i := range comp {
		it := p.Items[i]
		if s := float64(it.Size); it.Profit > 0 && s <= cap && s < minSize {
			minSize = s
		}
	}
	if math.IsInf(minSize, 1) {
		sc.convItems = items
		return -1
	}
	hi := cap
	if hi < minSize {
		hi = minSize
	}
	grid := GeomAppend(sc.convGrid[:0], minSize, hi, 1+rho)
	sc.convGrid = grid
	for _, i := range comp {
		it := p.Items[i]
		if it.Profit <= 0 || float64(it.Size) > cap {
			continue
		}
		cl := RoundDownIdx(grid, float64(it.Size))
		if cl < 0 {
			cl = 0 // unreachable: the grid starts at the minimum size
		}
		items = append(items, convItem{class: int32(cl), item: int32(i), profit: it.Profit})
	}
	sc.convItems = items
	if len(items) == 0 {
		return -1
	}
	slices.SortFunc(items, convItemCmp)

	runs := sc.convRuns[:0]
	for s := 0; s < len(items); {
		e := s
		for e < len(items) && items[e].class == items[s].class {
			e++
		}
		runs = append(runs, convRun{start: int32(s), end: int32(e), g: grid[items[s].class]})
		s = e
	}
	sc.convRuns = runs
	stats.GridPoints = len(runs) // occupied classes

	// Leaves: concave prefix staircases (top-k by profit per class).
	queue := sc.convQueue[:0]
	for ri := range runs {
		nid := sc.newConvNode()
		n := &sc.convNodes[nid]
		n.run = int32(ri)
		n.pts = append(n.pts, convPoint{}) // the empty selection
		r := runs[ri]
		var pr float64
		for k := int32(1); k <= r.end-r.start; k++ {
			size := float64(k) * r.g
			if size > cap {
				break
			}
			pr += items[r.start+k-1].profit
			n.pts = append(n.pts, convPoint{size: size, profit: pr, l: k})
		}
		queue = append(queue, nid)
	}

	// Balanced pairwise merging: depth ⌈log₂(classes)⌉, every level an
	// exact capped (max,+)-convolution with dominance pruning.
	next := sc.convNext[:0]
	for len(queue) > 1 {
		next = next[:0]
		for i := 0; i+1 < len(queue); i += 2 {
			next = append(next, sc.mergeConv(queue[i], queue[i+1], cap))
		}
		if len(queue)%2 == 1 {
			next = append(next, queue[len(queue)-1])
		}
		queue, next = next, queue
	}
	sc.convQueue, sc.convNext = queue, next

	root := queue[0]
	total := 0
	for i := 0; i < sc.convUsed; i++ {
		total += len(sc.convNodes[i].pts)
	}
	stats.PairsComp = total
	stats.CompFrontier = len(sc.convNodes[root].pts)
	return root
}

// mergeConv computes the capped (max,+)-convolution of two staircases:
// all pairwise sums within cap, sorted, dominance-pruned to a strictly
// improving frontier. Children are frontier-pruned already, which is
// lossless here: a parent sum through a dominated child point is
// itself dominated by the sum through the dominating one.
//
//sched:hotpath
func (sc *Scratch) mergeConv(a, b int32, cap float64) int32 {
	nid := sc.newConvNode()
	// Re-read child slices after the arena may have grown.
	ap := sc.convNodes[a].pts
	bp := sc.convNodes[b].pts
	cand := sc.convCand[:0]
	for ia := range ap {
		rest := cap - ap[ia].size
		if rest < 0 {
			break // sizes ascending
		}
		for ib := range bp {
			if bp[ib].size > rest {
				break
			}
			cand = append(cand, convPoint{
				size:   ap[ia].size + bp[ib].size,
				profit: ap[ia].profit + bp[ib].profit,
				l:      int32(ia), r: int32(ib),
			})
		}
	}
	sc.convCand = cand
	slices.SortFunc(cand, convPointCmp)
	n := &sc.convNodes[nid]
	n.lch, n.rch = a, b
	best := math.Inf(-1)
	for _, c := range cand {
		if c.profit > best {
			n.pts = append(n.pts, c)
			best = c.profit
		}
	}
	return nid
}

// convBest returns the maximum profile profit with size ≤ cap and the
// index of the point attaining it (-1 when even the origin exceeds
// cap, which only happens for cap < 0).
//
//sched:hotpath
func (sc *Scratch) convBest(root int32, cap float64) (float64, int32) {
	pts := sc.convNodes[root].pts
	lo, hi := -1, len(pts)-1
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if pts[mid].size <= cap {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo < 0 {
		return 0, -1
	}
	return pts[lo].profit, int32(lo)
}

// backtrackConv walks the merge tree from a root point down to the
// leaves, appending the selected item IDs and accumulating the
// compressed size, without recursion or allocation (explicit stack in
// the scratch).
//
//sched:hotpath
func (sc *Scratch) backtrackConv(p *Problem, root, pt int32, sol *Solution) {
	stack := append(sc.convStack[:0], [2]int32{root, pt})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &sc.convNodes[f[0]]
		q := n.pts[f[1]]
		if n.run >= 0 {
			r := sc.convRuns[n.run]
			for k := int32(0); k < q.l; k++ {
				idx := int(sc.convItems[r.start+k].item)
				sc.selected = append(sc.selected, p.Items[idx].ID)
				sol.SizeCompressed += (1 - p.RhoFull) * float64(p.Items[idx].Size)
			}
			continue
		}
		stack = append(stack, [2]int32{n.lch, q.l}, [2]int32{n.rch, q.r})
	}
	sc.convStack = stack[:0]
}
