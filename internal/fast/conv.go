package fast

// The Conv algorithm, after Grage, Jansen & Ohnesorge, "Improved
// Algorithms for Monotone Moldable Job Scheduling using Compression
// and Convolution" (arXiv:2303.01414): Alg1's dual round with the
// shelf-1 knapsack solved by the convolution engine
// knapsack.SolveConv — wide jobs are rounded onto the geometric class
// grid of the Lemma-16 compression classes and the selection is
// assembled from per-class concave profiles by iterated
// (max,+)-convolution instead of the Lawler pair-list DP.
//
// Like Alg1, Alg3 and Linear, Conv runs this knapsack dual only for
// m < 16n; for m ≥ 16n it runs the plain FPTAS dual of §4.2.5 (see
// Scratch.dualFor), so there its schedules are Linear's.

import (
	"context"

	"repro/internal/dual"
	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// ConvMinM is the least machine count the Conv algorithm accepts. A
// shelf-1 item is compressible only when γ_j(d) ≥ 1/ρ = 12/ε (ρ = ε/12
// of the outer ε), at least 40 processors for every ε ≤ 0.3; below 40
// machines the class grid is empty or nearly so, and the algorithm
// would silently degenerate to Alg1's plain pair-list DP — out of its
// regime. ScheduleConv then returns a scherr.RegimeError
// (MinM = ConvMinM), which the online runtime's pinned-algorithm path
// turns into the MRT → LT2 fallback.
const ConvMinM = 40

// Conv is the knapsack-regime (3/2+ε)-dual: Alg1's three-shelf
// structure with the shelf-1 selection solved by the convolution
// engine (knapsack.SolveConv) instead of Algorithm 2's pair lists.
type Conv struct {
	In  *moldable.Instance
	Eps float64 // ε ∈ (0, 1]
	// Stats accumulates knapsack cost counters across Try calls.
	Stats Alg1Stats
	// Scratch, when non-nil, makes Try reuse partition, knapsack, and
	// schedule buffers across probes; the returned schedule is then
	// owned by the scratch. Nil allocates per Try.
	Scratch *Scratch
}

// Guarantee returns 3/2·(1+4ρ) = 3/2+ε for ρ = ε/6 (same accounting as
// Alg1 — the convolution engine honours the identical Theorem-15
// contract).
func (a *Conv) Guarantee() float64 { return 1.5 * (1 + 4*a.Eps/6) }

// Try implements one dual round: the shared Alg1-shape round
// (tryCompressibleShelf1) with knapsack.SolveConv as the
// shelf-1 engine.
//
//sched:hotpath
//sched:owns-result
func (a *Conv) Try(d moldable.Time) (*schedule.Schedule, bool) {
	a.Stats.Tries++
	return tryCompressibleShelf1(a.In, d, a.Eps/6, a.Scratch, &a.Stats, knapsack.SolveConv)
}

//sched:owns-result
func mkConv(sc *Scratch, in *moldable.Instance, eps float64) dual.Algorithm {
	sc.cv = Conv{In: in, Eps: eps, Scratch: sc}
	return &sc.cv
}

// ScheduleConv runs the complete (3/2+eps)-approximation around the
// Conv dual; see ScheduleAlg1 for the eps split, cancellation and the
// scratch ownership contract. Instances with m < ConvMinM are outside
// the algorithm's regime and yield an error matching scherr.ErrRegime
// (use MRT or LT2 there — the online runtime does exactly that).
//
//sched:owns-result
func ScheduleConv(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch) (*schedule.Schedule, dual.Report, error) {
	if in.M < ConvMinM {
		return nil, dual.Report{}, scherr.Regime("conv", in.N(), in.M, eps, ConvMinM)
	}
	return run(ctx, in, eps, sc, mkConv)
}
