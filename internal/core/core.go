// Package core is the public facade of the library: algorithm selection,
// a single ScheduleCtx entry point with options (ScheduleScratchCtx for
// callers that reuse buffers), rich reports, and the PTAS router of §3.2.
//
// Algorithms (all for monotone moldable jobs, makespan minimization):
//
//	LT2     classical 2-approximation (Ludwig–Tiwari + list scheduling)
//	MRT     (3/2+ε), original O(nm) knapsack (Mounié–Rapine–Trystram)
//	Alg1    (3/2+ε), compressible knapsack, §4.2.5 — polylog in m
//	Alg3    (3/2+ε), bounded knapsack with rounded types, §4.3
//	Linear  (3/2+ε), §4.3.3 — linear in n, polylog in m
//	FPTAS   (1+ε) for m ≥ 16n/ε (Theorem 2)
//	Conv    (3/2+ε), convolution knapsack over compression classes
//	        (arXiv:2303.01414); requires m ≥ 40 (see DESIGN.md §8)
//	Auto    FPTAS when applicable, otherwise Linear
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/dual"
	"repro/internal/exact"
	"repro/internal/fast"
	"repro/internal/fptas"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// Algorithm selects the scheduling algorithm.
type Algorithm int

// Available algorithms.
const (
	Auto Algorithm = iota
	LT2
	MRT
	Alg1
	Alg3
	Linear
	FPTAS
	Conv
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Auto:
		return "auto"
	case LT2:
		return "lt2"
	case MRT:
		return "mrt"
	case Alg1:
		return "alg1"
	case Alg3:
		return "alg3"
	case Linear:
		return "linear"
	case FPTAS:
		return "fptas"
	case Conv:
		return "conv"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Algorithms lists every selectable algorithm, in declaration order.
func Algorithms() []Algorithm {
	return []Algorithm{Auto, LT2, MRT, Alg1, Alg3, Linear, FPTAS, Conv}
}

// AlgorithmNames lists the accepted names for ParseAlgorithm, sorted.
func AlgorithmNames() []string {
	names := make([]string, 0, len(Algorithms()))
	for _, a := range Algorithms() {
		names = append(names, a.String())
	}
	sort.Strings(names)
	return names
}

// ParseAlgorithm converts a name to an Algorithm. Matching is
// case-insensitive ("FPTAS", "Linear" and "fptas", "linear" are the
// same selection); an unknown name's error enumerates the valid ones.
func ParseAlgorithm(s string) (Algorithm, error) {
	for _, a := range Algorithms() {
		if strings.EqualFold(a.String(), s) {
			return a, nil
		}
	}
	return Auto, fmt.Errorf("core: unknown algorithm %q (valid: %s)",
		s, strings.Join(AlgorithmNames(), ", "))
}

// Options configures ScheduleCtx and ScheduleScratchCtx.
type Options struct {
	Algorithm Algorithm
	// Eps is the accuracy parameter ε ∈ (0,1]; defaults to 0.1.
	// LT2 ignores it.
	Eps float64
	// Validate re-checks the schedule against the instance before
	// returning (on by default in ValidateOrDie-style helpers; here an
	// explicit opt-in to keep the hot path clean).
	Validate bool
}

// Report describes the outcome.
type Report struct {
	Algorithm  Algorithm
	Eps        float64
	Guarantee  float64 // proven approximation factor of the configuration
	Makespan   moldable.Time
	Omega      moldable.Time // estimator lower bound (ω ≤ OPT)
	LowerBound moldable.Time // max(ω, simple bounds)
	Ratio      float64       // Makespan / LowerBound (≥ 1; an upper bound on the true ratio)
	Iterations int           // dual-search probes (0 for LT2)
	Elapsed    time.Duration
}

// Scratch aggregates the reusable buffers of every algorithm a
// ScheduleScratchCtx call can route to (the scratch-reuse discipline of
// internal/arena): one estimator scratch, the buffers of the fast
// (3/2+ε) duals and of MRT, the FPTAS dual's schedule double buffer,
// and the dual values handed to dual.Search. A warm Scratch makes
// ScheduleScratchCtx allocation-free in the steady state for the
// FPTAS/Linear regimes — the property guarded by
// TestScheduleScratchZeroAlloc and tracked in BENCH_PR3.json. The zero
// value is ready; a Scratch must not be shared between concurrent
// calls (internal/service keys one per pool worker).
type Scratch struct {
	LT   lt.Scratch
	Fast fast.Scratch
	MRT  mrt.Scratch
	// FP backs the FPTAS dual, which also serves the fast algorithms
	// at m ≥ 16n.
	FP fptas.Scratch

	// Reusable dual values: handing &sc.alg1 (etc.) to dual.Search
	// converts a pointer to the interface, so no call allocates one.
	alg1 fast.Alg1
	alg3 fast.Alg3
	fp   fptas.Dual
	mrt  mrt.Dual

	// TraceSource tags this scratch's decisions in the process's
	// trace ring (docs/OBSERVABILITY.md); "" records as "sched". The
	// online runtime sets "online".
	TraceSource string
}

// obsRecord leaves one decision's telemetry: the call/error/algorithm
// counters, the end-to-end latency histogram, and an event in the
// process's trace ring carrying the wire trace_id if the context bears
// one (obs.WithTraceID). All of it is atomics plus a TryLock ring
// write, so it allocates nothing.
//
//sched:hotpath
func (sc *Scratch) obsRecord(ctx context.Context, in *moldable.Instance, rep *Report, dr dual.Report, elapsed time.Duration, err error) {
	if !obs.On() {
		return
	}
	obs.SchedCalls.Inc()
	if a := int(rep.Algorithm); a >= 0 && a < obs.SchedAlgo.Len() {
		obs.SchedAlgo.At(a).Inc()
	}
	obs.SchedLatency.Observe(int64(elapsed))
	code := ""
	if err != nil {
		obs.SchedErrors.Inc()
		code = scherr.Code(err)
	}
	src := sc.TraceSource
	if src == "" {
		src = "sched"
	}
	obs.RecordTrace(obs.TraceEvent{
		TID:      obs.CtxTraceID(ctx),
		At:       time.Now().UnixNano(),
		Source:   src,
		Algo:     rep.Algorithm.String(),
		N:        in.N(),
		M:        in.M,
		Eps:      rep.Eps,
		Probes:   dr.Iterations,
		Elapsed:  int64(elapsed),
		Makespan: float64(rep.Makespan),
		Omega:    float64(dr.Omega),
		Code:     code,
	})
}

// NewScratch returns an empty Scratch (provided for symmetry; the zero
// value works too).
func NewScratch() *Scratch { return &Scratch{} }

// ScheduleCtx solves the instance with the selected algorithm under a
// context: cancellation is observed between dual-search probes (the
// expensive unit of work for every algorithm except LT2), and a
// canceled run returns an error matching scherr.ErrCanceled (which
// also unwraps to the context cause). Errors are typed: scherr.ErrBadEps
// for an accuracy parameter outside (0,1], scherr.ErrRegime when the
// FPTAS is forced outside m ≥ 16n/ε.
func ScheduleCtx(ctx context.Context, in *moldable.Instance, opt Options) (*schedule.Schedule, *Report, error) {
	s, rep, err := ScheduleScratchCtx(ctx, in, opt, nil)
	// The report is returned unconditionally: on error it reflects how
	// far the call got (the zero value for precondition failures, the
	// full report for a post-hoc validation failure). No caller may
	// infer success from a non-nil report — check err.
	return s, &rep, err
}

// ScheduleScratchCtx is ScheduleCtx drawing every buffer from sc and
// returning the Report by value: with a warm Scratch the FPTAS and
// Linear paths run allocation-free in the steady state. The returned
// schedule is then owned by the scratch — valid until the scratch's
// next use; Clone to keep it (internal/service does exactly that
// before caching). A nil scratch uses fresh buffers, making the result
// caller-owned.
//
//sched:hotpath
//sched:owns-result
func ScheduleScratchCtx(ctx context.Context, in *moldable.Instance, opt Options, sc *Scratch) (*schedule.Schedule, Report, error) {
	if opt.Eps == 0 {
		opt.Eps = 0.1
	}
	if opt.Eps < 0 || opt.Eps > 1 {
		if obs.On() {
			obs.SchedCalls.Inc()
			obs.SchedErrors.Inc()
		}
		return nil, Report{}, scherr.BadEps("core", opt.Eps)
	}
	if err := ctx.Err(); err != nil {
		if obs.On() {
			obs.SchedCalls.Inc()
			obs.SchedErrors.Inc()
		}
		return nil, Report{}, scherr.Canceled(err)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	start := time.Now()
	rep := Report{Algorithm: opt.Algorithm, Eps: opt.Eps}
	var s *schedule.Schedule
	var dr dual.Report
	var err error
	algo := opt.Algorithm
	if algo == Auto {
		if fptas.Applicable(in.N(), in.M, opt.Eps/2) {
			algo = FPTAS
		} else {
			algo = Linear
		}
		rep.Algorithm = algo
	}
	switch algo {
	case LT2:
		var est lt.Result
		s, est = lt.TwoApprox(in)
		dr.Omega = est.Omega
		rep.Guarantee = 2
	case FPTAS:
		s, dr, err = sc.theorem3(ctx, in, algo, opt.Eps)
		rep.Guarantee = 1 + opt.Eps
	case MRT, Alg1, Alg3, Linear, Conv:
		s, dr, err = sc.theorem3(ctx, in, algo, opt.Eps)
		rep.Guarantee = 1.5 + opt.Eps
	default:
		if obs.On() {
			obs.SchedCalls.Inc()
			obs.SchedErrors.Inc()
		}
		return nil, Report{}, fmt.Errorf("core: unknown algorithm %v", algo)
	}
	if err != nil {
		sc.obsRecord(ctx, in, &rep, dr, time.Since(start), err)
		return nil, Report{}, err
	}
	rep.Elapsed = time.Since(start)
	rep.Makespan = s.Makespan()
	rep.Omega = dr.Omega
	rep.Iterations = dr.Iterations
	rep.LowerBound = rep.Omega
	if lb := in.LowerBound(); lb > rep.LowerBound {
		rep.LowerBound = lb
	}
	if rep.LowerBound > 0 {
		rep.Ratio = float64(rep.Makespan / rep.LowerBound)
	}
	if opt.Validate {
		if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
			err = fmt.Errorf("core: produced invalid schedule: %w", verr)
			sc.obsRecord(ctx, in, &rep, dr, rep.Elapsed, err)
			return nil, rep, err
		}
	}
	sc.obsRecord(ctx, in, &rep, dr, rep.Elapsed, nil)
	return s, rep, nil
}

// theorem3 is the pipeline of Theorem 3 and of the FPTAS, shared by
// every dual-based algorithm: install algo's dual for in, run the
// Ludwig–Tiwari estimator once (ω ≤ OPT ≤ 2ω), and binary-search
// [ω, 2ω] with the dual. The returned schedule is owned by sc.
//
//sched:owns-result
func (sc *Scratch) theorem3(ctx context.Context, in *moldable.Instance, algo Algorithm, eps float64) (*schedule.Schedule, dual.Report, error) {
	d, slack, err := sc.dualFor(in, algo, eps)
	if err != nil {
		return nil, dual.Report{}, err
	}
	est := lt.EstimateScratch(in, &sc.LT)
	return dual.Search(ctx, d, est.Omega, 2*est.Omega, slack)
}

// dualFor installs algo's c-dual for in in the scratch and returns it
// with the search slack, or the typed refusal when in is outside the
// algorithm's regime. MRT's 3/2-dual searches at slack eps. The FPTAS
// and the fast algorithms split eps evenly between the dual factor and
// the slack. For m ≥ 16n the fast algorithms run the FPTAS dual with
// ε = 1/2 (a 3/2-dual), exactly as §4.2.5 prescribes: the knapsack
// parameter bounds (βmax = m = O(n)) need m = O(n), and for larger m
// the simple FPTAS is both valid and faster.
//
//sched:owns-result
func (sc *Scratch) dualFor(in *moldable.Instance, algo Algorithm, eps float64) (dual.Algorithm, float64, error) {
	n, m, half := in.N(), in.M, eps/2
	switch algo {
	case MRT:
		sc.mrt = mrt.Dual{In: in, Scratch: &sc.MRT}
		return &sc.mrt, eps, nil
	case FPTAS:
		if !fptas.Applicable(n, m, half) {
			return nil, 0, scherr.Regime("fptas", n, m, eps, fptas.MinM(n, eps))
		}
		sc.fp = fptas.Dual{In: in, Eps: half, Scratch: &sc.FP}
		return &sc.fp, half, nil
	case Conv:
		if m < fast.ConvMinM {
			return nil, 0, scherr.Regime("conv", n, m, eps, fast.ConvMinM)
		}
	}
	if m >= 16*n {
		sc.fp = fptas.Dual{In: in, Eps: 0.5, Scratch: &sc.FP}
		return &sc.fp, half, nil
	}
	switch algo {
	case Alg3, Linear:
		sc.alg3 = fast.Alg3{In: in, Eps: half, Buckets: algo == Linear, Scratch: &sc.Fast}
		return &sc.alg3, half, nil
	case Conv:
		sc.alg1 = fast.NewConv(in, half, &sc.Fast)
	default: // Alg1
		sc.alg1 = fast.Alg1{In: in, Eps: half, Scratch: &sc.Fast}
	}
	return &sc.alg1, half, nil
}

// ErrPTASRegime signals that a true (1+ε) guarantee is not certifiable
// for this instance with the algorithms of this paper: the paper's §3.2
// PTAS delegates m < 8n/ε to the Jansen–Thöle PTAS [14], which is
// outside this paper's contribution (see DESIGN.md §3). It matches
// scherr.ErrRegime under errors.Is.
var ErrPTASRegime = fmt.Errorf("core: m too small for the paper's FPTAS (%w); "+
	"the general-case PTAS [Jansen–Thöle] is out of scope — use Linear (3/2+ε) instead",
	scherr.ErrRegime)

// PTAS is the §3.2 router: the Theorem-2 FPTAS when m ≥ 16n/ε, the exact
// solver for tiny instances, and ErrPTASRegime otherwise. ctx cancels
// the FPTAS between dual probes, as in ScheduleCtx.
func PTAS(ctx context.Context, in *moldable.Instance, eps float64) (*schedule.Schedule, *Report, error) {
	if fptas.Applicable(in.N(), in.M, eps/2) {
		return ScheduleCtx(ctx, in, Options{Algorithm: FPTAS, Eps: eps})
	}
	if opt, s, err := exact.Solve(in, exact.Limits{}); err == nil {
		rep := &Report{Algorithm: FPTAS, Eps: eps, Guarantee: 1,
			Makespan: s.Makespan(), LowerBound: opt, Ratio: 1}
		return s, rep, nil
	}
	return nil, nil, ErrPTASRegime
}
