package shelves

import (
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// freeGroup is a run of adjacent processors sharing the identical free
// window [fs, fe] (everything outside is busy with big jobs). Build
// emits O(n) groups regardless of m.
type freeGroup struct {
	first, count int
	fs, fe       moldable.Time
}

// insertSmall re-adds the small jobs with the grouped next-fit of
// Lemma 9: the current job goes on the current processor if its window
// still has room, otherwise the processor is discarded forever and the
// scan advances. Runs in O(n + number of groups) and never fails when
// the three-shelf schedule's total work is within mτ − W_S(τ).
func insertSmall(in *moldable.Instance, part *Partition, sched *schedule.Schedule,
	groups []freeGroup) bool {
	if len(part.Small) == 0 {
		return true
	}
	gi, off := 0, 0
	var cur moldable.Time
	if len(groups) > 0 {
		cur = groups[0].fs
	}
	eps := 1e-12 * (1 + part.Tau)
	for _, j := range part.Small {
		dur := in.Jobs[j].Time(1)
		for {
			if gi >= len(groups) {
				return false
			}
			g := groups[gi]
			if cur+dur <= g.fe+eps {
				sched.AddAt(j, 1, cur, dur, g.first+off)
				cur += dur
				break
			}
			// discard the current processor, move to the next
			off++
			if off >= g.count {
				gi++
				off = 0
				if gi < len(groups) {
					cur = groups[gi].fs
				}
			} else {
				cur = g.fs
			}
		}
	}
	return true
}

// TwoShelf builds the raw two-shelf schedule of Figure 2 — shelf S1 at
// [0, τ] and shelf S2 at [τ, 3τ/2] — WITHOUT the feasibility
// transformation, so shelf S2 may use more than m processors. The
// returned schedule's M field is widened to the actual processor usage
// so it can be rendered; Feasible reports whether it fits the real m.
// Small jobs are omitted, as in the figure.
func TwoShelf(in *moldable.Instance, tau moldable.Time, shelf1 []int) (sched *schedule.Schedule, part *Partition, feasible bool) {
	part = &Partition{}
	if !Compute(part, in, tau) {
		return nil, part, false
	}
	inS1 := make([]bool, in.N())
	for _, j := range shelf1 {
		inS1[j] = true
	}
	for _, j := range part.Mand {
		inS1[j] = true
	}
	sched = schedule.New(in.M)
	x1, x2 := 0, 0
	for _, j := range part.Big {
		if inS1[j] {
			g := part.G1[j]
			sched.AddAt(j, g, 0, in.Jobs[j].Time(g), x1)
			x1 += g
		} else {
			g := part.G2[j]
			sched.AddAt(j, g, tau, in.Jobs[j].Time(g), x2)
			x2 += g
		}
	}
	needed := x1
	if x2 > needed {
		needed = x2
	}
	feasible = needed <= in.M
	if needed > sched.M {
		sched.M = needed // widen for rendering the infeasible shelf
	}
	return sched, part, feasible
}
