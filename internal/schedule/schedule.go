// Package schedule represents moldable-job schedules and provides exact
// feasibility validation and ASCII Gantt rendering — the output side of
// every algorithm in the repo: the shelf constructions of Jansen & Land
// §4.1 (Lemmas 7–9) emit their three-shelf layouts here, the FPTAS of
// §3 its simultaneous-start allotments, and Validate re-checks the
// feasibility invariants (cumulative usage ≤ m, completeness, makespan
// accounting) those lemmas promise. DoubleBuffer supports the
// dual-search hot path (DESIGN.md §6): swap-on-success reuse of
// schedule buffers across probes.
//
// A schedule assigns each job a processor count, a start time and
// (optionally) a contiguous block of concrete processor IDs. Moldable
// scheduling only requires the *cumulative* processor usage to stay
// within m at all times (processors are interchangeable and need not be
// contiguous); the concrete IDs exist for rendering and for the shelf
// construction, which reasons per-processor.
package schedule

import (
	"fmt"
	"slices"

	"repro/internal/moldable"
)

// Placement is one scheduled job.
type Placement struct {
	Job      int           // index of the job in the instance
	Procs    int           // allotted processors, ≥ 1
	Start    moldable.Time // start time, ≥ 0
	Duration moldable.Time // equals t_j(Procs); stored for convenience
	// FirstProc is the first processor ID of a contiguous assignment, or
	// -1 when the schedule is only cumulative (no concrete processors).
	FirstProc int
}

// End returns the completion time of the placement.
func (p Placement) End() moldable.Time { return p.Start + p.Duration }

// Schedule is a set of placements on M processors.
type Schedule struct {
	M          int
	Placements []Placement
}

// New returns an empty schedule for m processors.
func New(m int) *Schedule { return &Schedule{M: m} }

// Reset empties the schedule and re-targets it to m processors, keeping
// the placement buffer so steady-state refills allocate nothing. It is
// the entry point of the scratch-reuse discipline (internal/arena).
//
//sched:hotpath
func (s *Schedule) Reset(m int) {
	s.M = m
	s.Placements = s.Placements[:0]
}

// DoubleBuffer hands out reusable schedules with a swap-on-commit
// protocol, for dual algorithms whose Try must not clobber the last
// accepted schedule while probing a new target: dual.Search retains at
// most one successful schedule at a time, so two buffers suffice.
// Spare always returns the buffer NOT currently retained; a failed
// probe simply abandons it, while a successful probe calls Commit,
// which swaps the roles. Schedules handed out this way are owned by
// the buffer: they remain valid only until the next Spare call after a
// Commit, and callers that outlive the scratch must Clone.
type DoubleBuffer struct {
	bufs  [2]Schedule
	spare int
}

// Spare returns the non-retained buffer, reset for m processors.
//
//sched:hotpath
func (db *DoubleBuffer) Spare(m int) *Schedule {
	s := &db.bufs[db.spare]
	s.Reset(m)
	return s
}

// Commit marks the last Spare as retained; the next Spare returns the
// other buffer.
//
//sched:hotpath
func (db *DoubleBuffer) Commit() { db.spare ^= 1 }

// Add appends a placement without a concrete processor assignment.
//
//sched:hotpath
func (s *Schedule) Add(job, procs int, start, duration moldable.Time) {
	s.Placements = append(s.Placements, Placement{
		Job: job, Procs: procs, Start: start, Duration: duration, FirstProc: -1,
	})
}

// AddAt appends a placement with a concrete contiguous processor block.
//
//sched:hotpath
func (s *Schedule) AddAt(job, procs int, start, duration moldable.Time, firstProc int) {
	s.Placements = append(s.Placements, Placement{
		Job: job, Procs: procs, Start: start, Duration: duration, FirstProc: firstProc,
	})
}

// Makespan returns the completion time of the last job (0 for an empty
// schedule).
//
//sched:hotpath
func (s *Schedule) Makespan() moldable.Time {
	var mk moldable.Time
	for _, p := range s.Placements {
		if e := p.End(); e > mk {
			mk = e
		}
	}
	return mk
}

// TotalWork returns Σ Procs·Duration over all placements.
func (s *Schedule) TotalWork() moldable.Time {
	var w moldable.Time
	for _, p := range s.Placements {
		w += moldable.Time(p.Procs) * p.Duration
	}
	return w
}

// MaxUsage returns the maximum cumulative processor usage over time.
// It sorts the starts and the ends apart and sweeps them in merge
// order, releasing every job that ends at or before the next start
// first, so a job ending when another starts does not overlap it. The
// times must be finite (Validate rejects any other first); the order
// of a NaN is undefined.
func (s *Schedule) MaxUsage() int {
	n := len(s.Placements)
	events := make([]usage, 2*n)
	starts, ends := events[:n], events[n:]
	for i, p := range s.Placements {
		starts[i] = usage{p.Start, p.Procs}
		ends[i] = usage{p.End(), p.Procs}
	}
	slices.SortFunc(starts, usage.cmp)
	slices.SortFunc(ends, usage.cmp)
	cur, best, k := 0, 0, 0
	for _, st := range starts {
		for ; k < n && ends[k].t <= st.t; k++ {
			cur -= ends[k].procs
		}
		cur += st.procs
		best = max(best, cur)
	}
	return best
}

// usage is one start or end of a placement in MaxUsage's sweep.
type usage struct {
	t     moldable.Time
	procs int
}

func (a usage) cmp(b usage) int {
	if a.t < b.t {
		return -1
	}
	if a.t > b.t {
		return 1
	}
	return 0
}

// Allotment returns the processor counts per job index. Jobs missing from
// the schedule have entry 0.
func (s *Schedule) Allotment(n int) []int {
	a := make([]int, n)
	for _, p := range s.Placements {
		if p.Job >= 0 && p.Job < n {
			a[p.Job] = p.Procs
		}
	}
	return a
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{M: s.M, Placements: make([]Placement, len(s.Placements))}
	copy(c.Placements, s.Placements)
	return c
}

// String summarizes the schedule.
func (s *Schedule) String() string {
	return fmt.Sprintf("schedule{m=%d, jobs=%d, makespan=%.6g, maxUsage=%d}",
		s.M, len(s.Placements), s.Makespan(), s.MaxUsage())
}
