// Package mrt implements the original Mounié–Rapine–Trystram 3/2-dual
// approximation algorithm as described in Jansen & Land §4.1: remove the
// small jobs, pick shelf S1 by solving a knapsack with the dense O(nm)
// dynamic program, transform the two-shelf schedule into a feasible
// three-shelf schedule (Lemma 7), and re-add the small jobs (Lemma 9).
// Its running time is O(nm) — polynomial in m, NOT in log m — which is
// exactly the baseline the compressible-knapsack algorithms of §4.2–4.3
// improve upon. The package exports the dual only; internal/core runs
// it inside the Theorem-3 pipeline (estimator, then dual search).
package mrt

import (
	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/shelves"
)

// Dual is the 3/2-dual algorithm.
type Dual struct {
	In *moldable.Instance
	// Stats accumulates cost counters across Try calls.
	Stats Stats
	// Scratch, when non-nil, makes Try reuse the partition, dense-DP,
	// and schedule buffers across probes; the returned schedule is then
	// owned by the scratch (see shelves.Scratch). Nil allocates per
	// Try.
	Scratch *Scratch
}

// Scratch holds the reusable buffers of the MRT scheduler (the
// scratch-reuse discipline of internal/arena). Zero value ready; not
// safe for concurrent use.
type Scratch struct {
	Shelves shelves.Scratch
	Knap    knapsack.Scratch

	items    []knapsack.Item
	shelf1   []int
	buildRes shelves.Result
}

// Stats counts the dominating operations.
type Stats struct {
	Tries         int
	KnapsackCells int64 // dense DP cells touched (≈ n·m per call)
}

// Guarantee returns 3/2.
func (a *Dual) Guarantee() float64 { return 1.5 }

// Try implements the dual round for target makespan d.
//
//sched:hotpath
//sched:owns-result
func (a *Dual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	a.Stats.Tries++
	sc := a.Scratch
	if sc == nil {
		sc = &Scratch{}
	}
	in := a.In
	part := &sc.Shelves.Part
	if !shelves.Compute(part, in, d) {
		return nil, false
	}
	capacity := in.M - part.MandSize()
	if capacity < 0 {
		return nil, false
	}
	shelf1 := sc.shelf1[:0]
	if len(part.Opt) > 0 && capacity > 0 {
		items := sc.items[:0]
		for _, j := range part.Opt {
			items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
		}
		sc.items = items
		a.Stats.KnapsackCells += int64(len(items)) * int64(capacity+1)
		sel, _ := knapsack.SolveDense(items, capacity, &sc.Knap)
		shelf1 = append(shelf1, sel...)
	}
	sc.shelf1 = shelf1
	if !shelves.Build(&sc.buildRes, in, d, shelf1, shelves.Options{}, &sc.Shelves) {
		return nil, false
	}
	return sc.buildRes.Schedule, true
}
