// Package dual implements the dual-approximation framework of Hochbaum &
// Shmoys used throughout Jansen & Land §3–4: a c-dual algorithm accepts a
// target makespan d and either produces a schedule of makespan ≤ c·d or
// rejects, with the guarantee that it never rejects a d ≥ OPT. Combined
// with an estimator ω ≤ OPT ≤ 2ω, binary search over d ∈ [ω, 2ω] with
// O(log 1/ε) probes yields a (c+ε)-approximation.
package dual

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/compress"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// Algorithm is a c-dual approximate algorithm.
//
// Scratch contract (DESIGN.md §6): Search retains at most ONE accepted
// schedule at any time — the latest successful Try — and never reads a
// schedule from a probe it rejected. Implementations that reuse
// buffers across probes (fptas.Dual, fast.Alg1/Alg3 and mrt.Dual with
// their Scratch fields, all held in one core.Scratch by internal/core,
// the one caller outside tests)
// rely on exactly this: they build each attempt in a spare buffer and
// swap it in only on success (schedule.DoubleBuffer), so the schedule
// returned by Search may be owned by the algorithm's scratch and is
// valid until that scratch's next use.
type Algorithm interface {
	// Try attempts target makespan d. On success it returns a feasible
	// schedule with makespan at most Guarantee()·d. On failure it returns
	// (nil, false); this certifies d < OPT.
	Try(d moldable.Time) (*schedule.Schedule, bool)
	// Guarantee returns the dual factor c ≥ 1.
	Guarantee() float64
}

// Report summarizes a dual binary search.
type Report struct {
	Omega      moldable.Time // estimator lower bound (ω ≤ OPT)
	AcceptedD  moldable.Time // final accepted target
	RejectedD  moldable.Time // largest rejected target (< OPT), 0 if none
	Makespan   moldable.Time
	Iterations int
}

// ErrNoSchedule is returned when the dual algorithm rejects even the
// upper estimate 2ω, which certifies a bug in either the estimator or
// the dual algorithm (it must accept any d ≥ OPT).
var ErrNoSchedule = errors.New("dual: algorithm rejected d ≥ OPT; dual guarantee violated")

// Search runs the dual binary search on the bracket [lo, hi]: lo must
// satisfy lo ≤ OPT and hi must satisfy OPT ≤ hi (so the first probe,
// at hi, is guaranteed to be accepted by a correct dual algorithm).
// With an estimator ω ≤ OPT ≤ 2ω callers pass [ω, 2ω]; the returned
// schedule then has makespan ≤ (c+eps)·OPT. A wider bracket costs
// only O(log(hi/lo)) extra probes.
//
// The context is checked between probes (each probe is a full dual
// call, the expensive unit of work); a canceled context aborts the
// search with an error matching scherr.ErrCanceled, reporting the
// probes spent so far.
//
// Invariants: hi is always accepted; lo is either the initial lower
// bound (≤ OPT) or a rejected value (< OPT). The loop narrows hi−lo
// below (eps/c)·lo, after which
// makespan ≤ c·hi ≤ c·lo + eps·lo ≤ (c+eps)·OPT.
func Search(ctx context.Context, algo Algorithm, lo, hi moldable.Time, eps float64) (*schedule.Schedule, Report, error) {
	if eps <= 0 {
		return nil, Report{}, scherr.BadEps("dual", eps)
	}
	c := algo.Guarantee()
	rep := Report{Omega: lo}
	if lo <= 0 {
		return nil, rep, errors.New("dual: estimator returned non-positive omega")
	}
	if hi < lo {
		return nil, rep, fmt.Errorf("dual: empty search bracket [%v, %v]", lo, hi)
	}
	if err := ctx.Err(); err != nil {
		return nil, rep, scherr.Canceled(err)
	}
	sched, ok := probe(algo, hi)
	rep.Iterations++
	if !ok {
		return nil, rep, ErrNoSchedule
	}
	// d = lo may already be feasible; probing it first can save half the
	// interval but is not required for the guarantee. The target uses
	// the INITIAL lo (≤ OPT), fixed before the loop narrows the bracket.
	target := eps / c * lo
	for hi-lo > target {
		if err := ctx.Err(); err != nil {
			return nil, rep, scherr.Canceled(err)
		}
		mid := lo + (hi-lo)/2
		s, ok := probe(algo, mid)
		rep.Iterations++
		if ok {
			hi, sched = mid, s
		} else {
			lo = mid
			rep.RejectedD = mid
		}
	}
	rep.AcceptedD = hi
	rep.Makespan = sched.Makespan()
	// Defensive: the dual contract promises makespan ≤ c·hi.
	if rep.Makespan > c*hi*(1+1e-9) {
		return nil, rep, fmt.Errorf("dual: accepted schedule has makespan %v > c·d = %v",
			rep.Makespan, c*hi)
	}
	return sched, rep, nil
}

// probe runs one oracle call, timing it for the obs layer
// (sched_probes_total, sched_probe_latency_ns). Every probe of every
// search funnels through here; with recording disabled the wrapper
// costs one atomic load, and enabled it is two atomic counters plus a
// monotonic clock read — no allocation either way.
func probe(algo Algorithm, d moldable.Time) (*schedule.Schedule, bool) {
	if !obs.On() {
		return algo.Try(d)
	}
	t0 := time.Now()
	s, ok := algo.Try(d)
	obs.SchedProbes.Inc()
	obs.SchedProbeLatency.Observe(int64(time.Since(t0)))
	return s, ok
}

// Iterations returns the number of probes Search will use for the given
// eps and guarantee c: ⌈log2(c/eps)⌉ + 1. The Ceil is epsilon-guarded:
// when c/eps is an exact power of two the float64 log lands a few ulps
// high and an unguarded Ceil would budget a probe too many, making the
// reported bound disagree with the search's actual trajectory.
func Iterations(c, eps float64) int {
	if eps >= c {
		return 1
	}
	return compress.CeilInt(math.Log2(c/eps)) + 1
}
