package fast

import (
	"context"

	"repro/internal/dual"
	"repro/internal/fptas"
	"repro/internal/knapsack"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/shelves"
)

// Scratch holds the reusable per-call state of the fast (3/2+ε)
// schedulers (the scratch-reuse discipline of internal/arena): the
// estimator's buffers, the shelf and knapsack scratches shared by Alg1
// and Alg3 (only one algorithm runs per call), Alg3's item-typing
// buffers, and the reusable dual-algorithm structs handed to
// dual.Search. A warm Scratch makes a whole ScheduleX run
// allocation-free in the steady state (map-bucket reuse permitting);
// the produced schedule is then owned by the scratch and valid until
// its next use — Clone to keep it. The zero value is ready; a Scratch
// must not be shared between concurrent calls.
type Scratch struct {
	LT      lt.Scratch
	Shelves shelves.Scratch
	Knap    knapsack.Scratch

	// Reusable dual-algorithm values: handing &sc.a1 (etc.) to
	// dual.Search avoids a heap allocation per Schedule call.
	a1 Alg1
	a3 Alg3
	cv Conv
	fp fptas.Dual
	// fpSched backs the regime dual's schedule double buffer; its LT
	// field is unused (estimation runs through sc.LT).
	fpSched fptas.Scratch

	// Build output, reused across probes.
	buildRes shelves.Result

	// Alg1/Alg3 per-Try buffers.
	shelf1 []int
	items  []knapsack.Item
	comp   []bool

	// Alg3 item typing (§4.3.1): grids, the type table, and the flat
	// job-by-type buckets (a counting sort, so no per-type slices).
	countGrid, timeGridD, timeGridD2, profitGrid []float64
	typeOf                                       map[typeKey]int32
	types                                        []knapsack.Type
	typeIdx                                      []int32 // type of part.Opt[k]
	typeOff                                      []int32 // running offset per type
	jobsByType                                   []int32 // Opt jobs grouped by type
}

// dualFor picks the regime-appropriate dual algorithm out of the
// scratch: the knapsack-based dual (mk, at accuracy eps) when m < 16n,
// and the FPTAS dual with ε = 1/2 (a 3/2-dual) when m ≥ 16n, exactly as
// prescribed at the end of §4.2.5 — the knapsack parameter bounds
// (βmax = m = O(n)) need m = O(n), and for larger m the simple FPTAS is
// both valid and faster. The chosen struct lives in the scratch, so the
// interface conversion allocates nothing.
//
//sched:owns-result
func (sc *Scratch) dualFor(in *moldable.Instance, eps float64, mk func(*Scratch, *moldable.Instance, float64) dual.Algorithm) dual.Algorithm {
	if in.M >= 16*in.N() {
		sc.fp = fptas.Dual{In: in, Eps: 0.5, Scratch: &sc.fpSched}
		return &sc.fp
	}
	return mk(sc, in, eps)
}

// The mk* functions install one knapsack-regime dual in the scratch.
// They are top-level functions, not closures, so handing one to run
// allocates nothing.

//sched:owns-result
func mkAlg1(sc *Scratch, in *moldable.Instance, eps float64) dual.Algorithm {
	sc.a1 = Alg1{In: in, Eps: eps, Scratch: sc}
	return &sc.a1
}

//sched:owns-result
func mkAlg3(sc *Scratch, in *moldable.Instance, eps float64) dual.Algorithm {
	sc.a3 = Alg3{In: in, Eps: eps, Scratch: sc}
	return &sc.a3
}

//sched:owns-result
func mkLinear(sc *Scratch, in *moldable.Instance, eps float64) dual.Algorithm {
	sc.a3 = Alg3{In: in, Eps: eps, Buckets: true, Scratch: sc}
	return &sc.a3
}

// run is the body of every fast entry point: estimate ω, then search
// [ω, 2ω] with the regime's dual, splitting eps evenly between the dual
// factor and the search slack.
//
//sched:owns-result
func run(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch, mk func(*Scratch, *moldable.Instance, float64) dual.Algorithm) (*schedule.Schedule, dual.Report, error) {
	if err := checkEps(eps); err != nil {
		return nil, dual.Report{}, err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	est := lt.EstimateScratch(in, &sc.LT)
	return dual.Search(ctx, sc.dualFor(in, eps/2, mk), est.Omega, 2*est.Omega, eps/2)
}

// ScheduleAlg1 runs the complete (3/2+eps)-approximation around Alg1,
// splitting eps between the dual factor and the binary-search slack.
// Cancellation is checked between dual probes. Every buffer comes from
// sc; the returned schedule is owned by the scratch (valid until its
// next use). A nil scratch uses fresh buffers.
//
//sched:owns-result
func ScheduleAlg1(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch) (*schedule.Schedule, dual.Report, error) {
	return run(ctx, in, eps, sc, mkAlg1)
}

// ScheduleAlg3 runs the full (3/2+eps)-approximation around Alg3 (heap
// transformation rules, §4.3); see ScheduleAlg1 for cancellation and
// the scratch ownership contract.
//
//sched:owns-result
func ScheduleAlg3(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch) (*schedule.Schedule, dual.Report, error) {
	return run(ctx, in, eps, sc, mkAlg3)
}

// ScheduleLinear runs the §4.3.3 linear-time variant (bucketed rules);
// see ScheduleAlg1 for cancellation and the scratch ownership contract.
//
//sched:owns-result
func ScheduleLinear(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch) (*schedule.Schedule, dual.Report, error) {
	return run(ctx, in, eps, sc, mkLinear)
}
