package knapsack

import "repro/internal/arena"

// Bounded-knapsack support (§4.3): Algorithm 3 reduces the shelf-1
// selection to a bounded knapsack over O(poly(1/δ)·polylog(δm)) item
// types, then expands each type into O(log count) 0/1 "container" items
// of multiplicities 1, 2, 4, …, count−(2^k−1) (Kellerer, Pferschy &
// Pisinger). A container stands for that many identical items, so every
// count in [0, count] is expressible and the 0/1 optimum equals the
// bounded optimum.

// Type is a bounded-knapsack item type.
type Type struct {
	Size         int     // per-item size
	Profit       float64 // per-item profit
	Count        int     // number of available items
	Compressible bool
}

// Container maps an expanded 0/1 item back to its type.
type Container struct {
	Type int // index into the type slice
	Mult int // how many items of the type it bundles
}

// ContainersAppend expands types into 0/1 items, appending onto the
// given buffers (nil for fresh slices). Items whose size already
// exceeds cap are dropped (they can never be packed). The returned
// parallel slices are the 0/1 items, their type/multiplicity metadata,
// and their compressibility flags. Item IDs index meta.
func ContainersAppend(items []Item, meta []Container, comp []bool, types []Type, cap int) ([]Item, []Container, []bool) {
	for ti, t := range types {
		if t.Count <= 0 || t.Size <= 0 {
			continue
		}
		remaining := t.Count
		mult := 1
		for remaining > 0 {
			take := mult
			if take > remaining {
				take = remaining
			}
			size := take * t.Size
			if size <= cap {
				items = append(items, Item{ID: len(meta), Size: size, Profit: float64(take) * t.Profit})
				meta = append(meta, Container{Type: ti, Mult: take})
				comp = append(comp, t.Compressible)
			} else if t.Size > cap {
				break // even a single item does not fit
			}
			remaining -= take
			mult *= 2
		}
	}
	return items, meta, comp
}

// BoundedSolution reports how many items of each type were selected.
type BoundedSolution struct {
	CountByType []int
	Profit      float64
	Stats       Stats
}

// SolveBounded solves the bounded knapsack with compressible types via
// the container transform and Algorithm 2. alphaMin/betaMax/nbar are as
// in Problem (computed over container items by the caller or derived
// here with safe defaults when zero).
//
// Buffers come from sc: a warm Scratch makes the call allocation-free,
// and the returned CountByType aliases the scratch (valid until its
// next use). A nil scratch uses fresh buffers.
//
//sched:owns-result
func SolveBounded(types []Type, C int, rhoFull, alphaMin, betaMax float64, nbar int, sc *Scratch) (BoundedSolution, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	items, meta, comp := ContainersAppend(sc.items[:0], sc.meta[:0], sc.compFlags[:0], types, C)
	sc.items, sc.meta, sc.compFlags = items, meta, comp
	if alphaMin <= 0 {
		for i, it := range items {
			if comp[i] && (alphaMin <= 0 || float64(it.Size) < alphaMin) {
				alphaMin = float64(it.Size)
			}
		}
	}
	if betaMax <= 0 {
		var tot float64
		for i, it := range items {
			if !comp[i] {
				tot += float64(it.Size)
			}
		}
		betaMax = tot
		if betaMax > float64(C) {
			betaMax = float64(C)
		}
	}
	if nbar <= 0 {
		// every compressible item (container) has size ≥ alphaMin
		if alphaMin > 0 {
			nbar = int(float64(C)/alphaMin) + 1 //schedlint:ignore fpconv upper bound with +1 slack; truncating an ulp low still covers every item
		} else {
			nbar = 1
		}
	}
	sol, err := Solve(Problem{
		Items:        items,
		Compressible: comp,
		C:            C,
		RhoFull:      rhoFull,
		AlphaMin:     alphaMin,
		BetaMax:      betaMax,
		NBar:         nbar,
	}, sc)
	if err != nil {
		return BoundedSolution{}, err
	}
	sc.countByType = arena.Zeroed(sc.countByType, len(types))
	out := BoundedSolution{CountByType: sc.countByType, Profit: sol.Profit, Stats: sol.Stats}
	for _, id := range sol.Selected {
		out.CountByType[meta[id].Type] += meta[id].Mult
	}
	return out, nil
}
