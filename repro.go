// Package repro reproduces "Scheduling Monotone Moldable Jobs in Linear
// Time" (Klaus Jansen & Felix Land, IPDPS 2018, arXiv:1711.00103): a
// complete Go implementation of the paper's algorithms — the FPTAS for
// large machine counts (Theorem 2), the three (3/2+ε)-approximation
// algorithms with running times polylogarithmic in the number of
// machines (Theorem 3 / Table 1), the 4-Partition NP-completeness
// reduction (Theorem 1) — together with every substrate they rely on:
// the moldable-job oracle model, the Ludwig–Tiwari estimator, list
// scheduling, the Mounié–Rapine–Trystram shelf machinery, and the
// knapsack-with-compressible-items toolbox (Algorithm 2 / Theorem 15).
//
// The root package is a thin facade; the implementation lives under
// internal/ (see DESIGN.md §1 for the system inventory).
//
// # Entry point: the Client
//
// All scheduling goes through a context-first Client, a handle over
// the serving stack (worker pool, result cache):
//
//	c := repro.New(repro.WithEps(0.1))
//	defer c.Close()
//
//	in := &moldable.Instance{M: 1 << 20, Jobs: []moldable.Job{
//	    moldable.Amdahl{Seq: 2, Par: 98},
//	    moldable.PerfectSpeedup{W: 512},
//	}}
//	s, rep, err := c.Schedule(ctx, in)
//
// Methods: Schedule (one instance), ScheduleStream (a batch, results
// streamed in completion order as an iter.Seq2), RunOnline (a
// timestamped arrival stream replayed through the event-driven online
// runtime — see internal/online and DESIGN.md §7), Estimate (ω with
// ω ≤ OPT ≤ 2ω), Validate (instance preconditions), ValidateSchedule.
// Cancellation and deadlines on ctx reach all the way into the
// algorithms' dual-search probe loops; interrupted work returns errors
// matching ErrCanceled. Errors are typed (ErrNotMonotone, ErrRegime,
// ErrBadEps, ErrCanceled) and errors.Is/As-able.
package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// Re-exported types, so basic use needs only this package plus
// internal/moldable for job definitions.
type (
	// Report describes a scheduling run; see core.Report.
	Report = core.Report
	// Algorithm selects the algorithm; see the constants below.
	Algorithm = core.Algorithm
	// ScheduleResult is a produced schedule; see schedule.Schedule.
	ScheduleResult = schedule.Schedule
)

// Algorithm constants.
const (
	Auto   = core.Auto
	LT2    = core.LT2
	MRT    = core.MRT
	Alg1   = core.Alg1
	Alg3   = core.Alg3
	Linear = core.Linear
	FPTAS  = core.FPTAS
	Conv   = core.Conv
)

// PTAS is the §3.2 router; see core.PTAS. It is a specialist entry
// point (certifies (1+ε) or returns an error matching ErrRegime) and
// has no Client equivalent. ctx cancels the FPTAS between dual probes.
func PTAS(ctx context.Context, in *moldable.Instance, eps float64) (*schedule.Schedule, *Report, error) {
	return core.PTAS(ctx, in, eps)
}
