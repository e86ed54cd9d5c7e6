package moldable

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/scherr"
)

// Instance is a scheduling instance: m identical processors and a set of
// monotone moldable jobs.
type Instance struct {
	M    int   // number of processors, ≥ 1
	Jobs []Job // jobs; Jobs[i] is job i
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// MinTotalWork returns Σ_j w_j(1), the least possible total work of any
// schedule (monotone jobs have their minimum work on one processor).
// W/m is a valid lower bound on the optimal makespan.
func (in *Instance) MinTotalWork() Time {
	var w Time
	for _, j := range in.Jobs {
		w += j.Time(1)
	}
	return w
}

// MaxMinTime returns max_j t_j(M), the largest processing time when every
// job gets all processors: another lower bound on the optimal makespan.
func (in *Instance) MaxMinTime() Time {
	var t Time
	for _, j := range in.Jobs {
		if tt := j.Time(in.M); tt > t {
			t = tt
		}
	}
	return t
}

// LowerBound returns max(MinTotalWork()/M, MaxMinTime()), a simple valid
// lower bound on the optimal makespan.
func (in *Instance) LowerBound() Time {
	lb := in.MinTotalWork() / Time(in.M)
	if t := in.MaxMinTime(); t > lb {
		lb = t
	}
	return lb
}

// ErrNotMonotone reports a violation of the monotone-job assumption. It
// is the shared scherr.ErrNotMonotone sentinel, so errors.Is works the
// same whichever package the caller imports.
var ErrNotMonotone = scherr.ErrNotMonotone

// CheckMonotone verifies that job j is monotone over 1..m: time
// non-increasing, work non-decreasing, and t(1) positive and finite.
// A closed-form job whose parameters lie in their proven-monotone
// domain (closedform.go) needs only the t(1) check: its parameters are
// the proof. Every other job is probed. For large m an exhaustive scan
// is too expensive (and contradicts the compact-encoding model), so at
// most maxProbes processor counts are probed: a geometric sample plus
// each sample's neighbourhood. Pass maxProbes ≤ 0 for the exhaustive
// O(m) scan.
func CheckMonotone(j Job, m, maxProbes int) error {
	t1 := j.Time(1)
	if math.IsNaN(t1) || math.IsInf(t1, 0) || t1 <= 0 {
		return fmt.Errorf("%w: t(1)=%v must be positive and finite", ErrNotMonotone, t1)
	}
	if provenMonotone(j, 0) {
		return nil
	}
	check := func(k int) error { // compare k against k+1
		tk, tk1 := j.Time(k), j.Time(k+1)
		if math.IsNaN(tk1) || math.IsInf(tk1, 0) || tk1 < 0 {
			return fmt.Errorf("%w: t(%d)=%v invalid", ErrNotMonotone, k+1, tk1)
		}
		const slack = 1e-12 // tolerate float rounding in closed-form oracles
		if tk1 > tk*(1+slack) {
			return fmt.Errorf("%w: t(%d)=%v > t(%d)=%v", ErrNotMonotone, k+1, tk1, k, tk)
		}
		if wk, wk1 := Time(k)*tk, Time(k+1)*tk1; wk1 < wk*(1-slack) {
			return fmt.Errorf("%w: w(%d)=%v < w(%d)=%v", ErrNotMonotone, k+1, wk1, k, wk)
		}
		return nil
	}
	if maxProbes <= 0 || m <= maxProbes {
		for k := 1; k < m; k++ {
			if err := check(k); err != nil {
				return err
			}
		}
		return nil
	}
	// Geometric sample: k, k+1, 2k-1, 2k, ... Each probe compares adjacent
	// counts so local violations near the sampled points are caught.
	for k := 1; k < m; k = k*2 + 1 {
		for _, kk := range [...]int{k, k + 1, k + 2} {
			if kk < m {
				if err := check(kk); err != nil {
					return err
				}
			}
		}
	}
	return check(m - 1 - min(1, m-2)) // probe near the top as well
}

// ValidateCtx checks the instance: m ≥ 1, at least one job, and every
// job monotone (probed as in CheckMonotone with the given probe
// budget). The context is checked between jobs (per-job probing is the
// expensive part), and a canceled context returns an error matching
// scherr.ErrCanceled.
func (in *Instance) ValidateCtx(ctx context.Context, maxProbes int) error {
	if in.M < 1 {
		return fmt.Errorf("moldable: m=%d must be ≥ 1", in.M)
	}
	if len(in.Jobs) == 0 {
		return errors.New("moldable: instance has no jobs")
	}
	for i, j := range in.Jobs {
		if err := ctx.Err(); err != nil {
			return scherr.Canceled(err)
		}
		if err := CheckMonotone(j, in.M, maxProbes); err != nil {
			return fmt.Errorf("job %d: %w", i, err)
		}
	}
	return nil
}

// CountingJob wraps a job and counts oracle calls. It is safe for
// concurrent use. Used by the experiment harness to demonstrate the
// O(n log m) oracle complexity of the algorithms. GammaSeed sees
// through it, so γ of a counted closed-form job takes the same seeded
// search as the bare job, and every call that search makes is counted.
type CountingJob struct {
	J     Job
	calls atomic.Int64
}

// Time forwards to the wrapped job and increments the call counter.
func (c *CountingJob) Time(p int) Time {
	c.calls.Add(1)
	return c.J.Time(p)
}

// Calls returns the number of oracle calls so far.
func (c *CountingJob) Calls() int64 { return c.calls.Load() }

// Reset zeroes the call counter.
func (c *CountingJob) Reset() { c.calls.Store(0) }

// Instrument wraps every job of in with a CountingJob and returns the new
// instance plus a function reporting the total number of oracle calls.
func Instrument(in *Instance) (*Instance, func() int64) {
	jobs := make([]Job, len(in.Jobs))
	counters := make([]*CountingJob, len(in.Jobs))
	for i, j := range in.Jobs {
		c := &CountingJob{J: j}
		counters[i] = c
		jobs[i] = c
	}
	total := func() int64 {
		var s int64
		for _, c := range counters {
			s += c.Calls()
		}
		return s
	}
	return &Instance{M: in.M, Jobs: jobs}, total
}
