package schedule

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/moldable"
)

// Validation errors.
var (
	ErrMissingJob     = errors.New("schedule: job not scheduled exactly once")
	ErrBadProcs       = errors.New("schedule: processor count out of range")
	ErrBadDuration    = errors.New("schedule: duration does not match oracle")
	ErrOverSubscribed = errors.New("schedule: more than m processors busy")
	ErrNegativeStart  = errors.New("schedule: negative start time")
	ErrNonFinite      = errors.New("schedule: start or duration not finite")
	ErrProcOverlap    = errors.New("schedule: overlapping concrete processor assignment")
)

// Options configures validation.
type Options struct {
	// Tol is the relative tolerance for duration comparison against the
	// oracle (defaults to 1e-9).
	Tol float64
	// RequireConcrete additionally verifies the per-processor assignment
	// (FirstProc blocks must not overlap in time on any processor).
	RequireConcrete bool
}

// Validate checks that s is a feasible schedule for in:
//   - every job appears exactly once,
//   - 1 ≤ Procs ≤ m, Start and Duration are finite, and Start ≥ 0,
//   - Duration = t_j(Procs) (within tolerance),
//   - at most m processors are busy at any time (event sweep),
//   - with RequireConcrete, the concrete processor blocks are disjoint.
func Validate(in *moldable.Instance, s *Schedule, opt Options) error {
	if opt.Tol <= 0 {
		opt.Tol = 1e-9
	}
	if s.M != in.M {
		return fmt.Errorf("schedule: schedule for m=%d but instance has m=%d", s.M, in.M)
	}
	seen := make([]int, in.N())
	for i, p := range s.Placements {
		if p.Job < 0 || p.Job >= in.N() {
			return fmt.Errorf("%w: placement %d references job %d", ErrMissingJob, i, p.Job)
		}
		seen[p.Job]++
		if p.Procs < 1 || p.Procs > in.M {
			return fmt.Errorf("%w: job %d has %d procs (m=%d)", ErrBadProcs, p.Job, p.Procs, in.M)
		}
		// A NaN fails every comparison below, and +Inf passes them.
		if math.IsNaN(p.Start) || math.IsInf(p.Start, 0) || math.IsNaN(p.Duration) || math.IsInf(p.Duration, 0) {
			return fmt.Errorf("%w: job %d starts at %v for %v", ErrNonFinite, p.Job, p.Start, p.Duration)
		}
		if p.Start < 0 {
			return fmt.Errorf("%w: job %d starts at %v", ErrNegativeStart, p.Job, p.Start)
		}
		want := in.Jobs[p.Job].Time(p.Procs)
		if math.Abs(p.Duration-want) > opt.Tol*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("%w: job %d on %d procs has duration %v, oracle says %v",
				ErrBadDuration, p.Job, p.Procs, p.Duration, want)
		}
	}
	for j, c := range seen {
		if c != 1 {
			return fmt.Errorf("%w: job %d scheduled %d times", ErrMissingJob, j, c)
		}
	}
	if u := s.MaxUsage(); u > in.M {
		return fmt.Errorf("%w: peak usage %d > m=%d", ErrOverSubscribed, u, in.M)
	}
	if opt.RequireConcrete {
		if err := validateConcrete(s); err != nil {
			return err
		}
	}
	return nil
}

// validateConcrete sweeps per-processor intervals for overlap. Placements
// with FirstProc < 0 are rejected in this mode.
func validateConcrete(s *Schedule) error {
	type iv struct {
		start, end moldable.Time
		job        int
	}
	perProc := make(map[int][]iv)
	for _, p := range s.Placements {
		if p.FirstProc < 0 {
			return fmt.Errorf("%w: job %d has no concrete assignment", ErrProcOverlap, p.Job)
		}
		if p.FirstProc+p.Procs > s.M {
			return fmt.Errorf("%w: job %d occupies procs [%d,%d) beyond m=%d",
				ErrProcOverlap, p.Job, p.FirstProc, p.FirstProc+p.Procs, s.M)
		}
		for q := p.FirstProc; q < p.FirstProc+p.Procs; q++ {
			perProc[q] = append(perProc[q], iv{p.Start, p.End(), p.Job})
		}
	}
	const eps = 1e-9
	for q, ivs := range perProc {
		sort.Slice(ivs, func(i, k int) bool { return ivs[i].start < ivs[k].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end-eps {
				return fmt.Errorf("%w: proc %d jobs %d and %d overlap ([%.6g,%.6g) vs [%.6g,%.6g))",
					ErrProcOverlap, q, ivs[i-1].job, ivs[i].job,
					ivs[i-1].start, ivs[i-1].end, ivs[i].start, ivs[i].end)
			}
		}
	}
	return nil
}

// AssignContiguous gives every placement that lacks a concrete processor
// block one, greedily (sorted by start time, first-fit over a free-set of
// processor intervals). It returns an error if no contiguous assignment
// is found this way; cumulative-feasible schedules may legitimately fail
// here (contiguity is strictly stronger), in which case rendering falls
// back to cumulative mode.
func AssignContiguous(s *Schedule) error {
	type ev struct {
		t     moldable.Time
		procs [2]int // [first, count]
		isRel bool
		idx   int
	}
	idxs := make([]int, 0, len(s.Placements))
	for i := range s.Placements {
		idxs = append(idxs, i)
	}
	sort.Slice(idxs, func(a, b int) bool {
		pa, pb := s.Placements[idxs[a]], s.Placements[idxs[b]]
		if pa.Start != pb.Start {
			return pa.Start < pb.Start
		}
		return pa.Procs > pb.Procs
	})
	// busy[q] = time until processor q is busy
	busy := make([]moldable.Time, s.M)
	const eps = 1e-9
	for _, i := range idxs {
		p := &s.Placements[i]
		if p.FirstProc >= 0 {
			for q := p.FirstProc; q < p.FirstProc+p.Procs; q++ {
				if p.End() > busy[q] {
					busy[q] = p.End()
				}
			}
			continue
		}
		// find a contiguous run of Procs processors free at p.Start
		run := 0
		found := -1
		for q := 0; q < s.M; q++ {
			if busy[q] <= p.Start+eps {
				run++
				if run >= p.Procs {
					found = q - p.Procs + 1
					break
				}
			} else {
				run = 0
			}
		}
		if found < 0 {
			return fmt.Errorf("schedule: no contiguous block of %d procs free at %v for job %d",
				p.Procs, p.Start, p.Job)
		}
		p.FirstProc = found
		for q := found; q < found+p.Procs; q++ {
			busy[q] = p.End()
		}
	}
	return nil
}
