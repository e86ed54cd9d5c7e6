package fast

// The Conv algorithm, after Grage, Jansen & Ohnesorge, "Improved
// Algorithms for Monotone Moldable Job Scheduling using Compression
// and Convolution" (arXiv:2303.01414): the same dual-approximation
// frame as Alg1/Alg3, with both regimes rebuilt around the Lemma-16
// compression classes.
//
//   - m < 32n (the knapsack regime): Alg1's partition drives the
//     convolution knapsack engine knapsack.SolveConv — wide jobs are
//     rounded onto the geometric class grid and the shelf-1 selection
//     is assembled from per-class concave profiles by iterated
//     (max,+)-convolution instead of the Lawler pair-list DP.
//
//   - m ≥ 32n (the large-machine regime): a compressed-allotment dual
//     replacing the plain FPTAS dual that Alg1/Alg3/Linear use there.
//     Allotments are restricted to a geometric candidate grid of
//     O(log m) integers: each γ is package gamma's seeded γ rounded up
//     onto the grid (gamma.RoundUp), which for a non-increasing t_j is
//     the smallest candidate meeting the target. Wide allotments are
//     compressed by ρ = 1/20 to pay the grid's rounding back. All
//     arithmetic on counts is integer, so no float→int edge can go one
//     off (the compress-package hardening applies to the float paths
//     only).
//
// Constants of the large-machine dual (see DESIGN.md §3 and §8 for
// the deviation from the paper's):
//
//	ρ  = 1/convRho = 1/20   compression factor of wide allotments
//	b̃  = convWideB = 40     wide threshold (≥ 2/ρ, so the integer
//	                        grid step stays within the budget)
//	grid step ⌈g/40⌉        ratio ≤ 1+1/40; with the +1 of the integer
//	                        ceiling, a candidate overshoots the true
//	                        γ_j by at most the factor 1+1/20
//	ε̃  = 1/4                allotment slack; guarantee (1+4ρ)(1+ε̃) = 3/2
//
// Soundness of rejection for d ≥ OPT: Lemma 5 needs m ≥ 8n/ε̃ = 32n and
// gives Σ γ_j((1+ε̃)d) ≤ m; each wide candidate γ̃ ≤ γ·(1+1/40+1/b̃)
// = γ·(1+1/20) is compressed to ⌊γ̃(1−1/20)⌋ ≤ γ·(21/20)(19/20) < γ,
// and narrow candidates are exact, so the compressed total never
// exceeds Σ γ_j ≤ m. Times: Lemma 4 at ρ = 1/20 (γ̃ ≥ b̃ = 40 ≥ 1/ρ)
// bounds every processing time by (1+4ρ)(1+ε̃)d = 3/2·d.

import (
	"context"

	"repro/internal/dual"
	"repro/internal/gamma"
	"repro/internal/knapsack"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

const (
	// convRho is the denominator of the large-machine compression
	// factor ρ = 1/20.
	convRho = 20
	// convWideB is the wide threshold b̃ = 2·convRho of the
	// large-machine dual; also the least machine count Conv accepts
	// (below it no job can ever be wide and the compression machinery
	// is inert — ConvMinM documents the regime).
	convWideB = 2 * convRho
	// convRegimeN is the regime split: m ≥ convRegimeN·n runs the
	// compressed-allotment dual (Lemma 5 with ε̃ = 1/4 needs m ≥ 8n/ε̃),
	// smaller m the convolution knapsack dual.
	convRegimeN = 32
)

// convKappa is the candidate grid's round-up slack: a true γ rounds up
// onto the grid within the factor
// κ = 1 + 1/(2·convRho) + 1/convWideB = (convRho+1)/convRho (= 21/20),
// using convWideB = 2·convRho. It is the κ of lt.EstimateGrid's
// bracket ω_S/κ ≤ OPT ≤ 2ω_S, so it must track convRho/convWideB —
// hence derived, not a literal.
const convKappa = float64(convRho+1) / convRho

// ConvMinM is the least machine count the Conv algorithm accepts:
// below the wide threshold b̃ = 40 no job can ever be compressed, the
// class grid is empty, and the algorithm would silently degenerate to
// a plain pair-list DP — out of its proven regime. ScheduleConv then
// returns a scherr.RegimeError (MinM = ConvMinM), which the online
// runtime's pinned-algorithm path turns into the MRT → LT2 fallback.
const ConvMinM = convWideB

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

// convWide is the large-machine 3/2-dual of the Conv algorithm:
// compressed allotments searched over the geometric candidate grid
// (see the file comment for the soundness accounting).
type convWide struct {
	In      *moldable.Instance
	Scratch *Scratch
}

// Guarantee returns the dual factor (1+4ρ)(1+ε̃) = (1+4/20)(1+1/4) = 3/2.
func (a *convWide) Guarantee() float64 { return 1.5 }

// convCands returns the candidate processor counts for machine size m:
// every integer in [1, b̃), then the geometric integer grid from b̃ to m
// with step ⌈g/(2·convRho)⌉, ending exactly at m. Rebuilt only when m
// changes; Conv's wide regime allots only these counts.
//
//sched:hotpath
//sched:owns-result
func (sc *Scratch) convCands(m int) []int {
	if sc.cwM == m && len(sc.cwCands) > 0 {
		return sc.cwCands
	}
	c := sc.cwCands[:0]
	for p := 1; p < convWideB && p <= m; p++ {
		c = append(c, p)
	}
	if m >= convWideB {
		for g := convWideB; g < m; g += (g + 2*convRho - 1) / (2 * convRho) {
			c = append(c, g)
		}
		c = append(c, m)
	}
	sc.cwCands, sc.cwM = c, m
	return c
}

// Try allots to every job the smallest candidate count meeting
// t_j ≤ (1+ε̃)d, compresses wide allotments by ρ, and schedules all
// jobs at time zero; it rejects iff some job cannot meet the target on
// m processors or the compressed total exceeds m.
//
//sched:hotpath
//sched:owns-result
func (a *convWide) Try(d moldable.Time) (*schedule.Schedule, bool) {
	t := (1 + 0.25) * d // ε̃ = 1/4
	in := a.In
	sc := a.Scratch
	if sc == nil {
		sc = &Scratch{} //schedlint:ignore hotalloc cold fallback: only taken when the caller passed nil scratch; the warm path (TestScheduleScratchZeroAlloc) never reaches it
	}
	cands := sc.convCands(in.M)
	s := sc.cwSched.Spare(in.M)
	used := 0
	for i, j := range in.Jobs {
		// Smallest candidate with t_j ≤ t: the seeded γ rounded up onto
		// the grid.
		g, ok := gamma.Gamma(j, in.M, t)
		if !ok {
			return nil, false // even m processors miss the target
		}
		g = cands[gamma.RoundUp(cands, g)]
		if g >= convWideB {
			g -= (g + convRho - 1) / convRho // ⌊g(1−ρ)⌋, integer-exact
		}
		used += g
		if used > in.M {
			return nil, false
		}
		s.Add(i, g, 0, j.Time(g))
	}
	sc.cwSched.Commit()
	return s, true
}

// ScheduleConv runs the complete (3/2+eps)-approximation around the
// Conv duals, splitting eps between the dual factor and the search
// slack; see ScheduleAlg1 for cancellation and the scratch ownership
// contract. Instances with m < ConvMinM are outside the algorithm's
// regime and yield an error matching scherr.ErrRegime (use MRT or LT2
// there — the online runtime does exactly that).
//
//sched:owns-result
func ScheduleConv(ctx context.Context, in *moldable.Instance, eps float64, sc *Scratch) (*schedule.Schedule, dual.Report, error) {
	if err := checkEps(eps); err != nil {
		return nil, dual.Report{}, err
	}
	if in.M < ConvMinM {
		return nil, dual.Report{}, scherr.Regime("conv", in.N(), in.M, eps, ConvMinM)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if in.M >= convRegimeN*in.N() {
		// Large-machine regime: estimate on the candidate grid too, so
		// the matrix search covers n·|cands| entries instead of n·m.
		// The grid estimate brackets OPT by [ω_S/κ, 2ω_S] with
		// κ = 21/20 (see lt.EstimateGrid), which dual.Search consumes
		// for O(log κ) extra probes.
		cands := sc.convCands(in.M)
		est := lt.EstimateGrid(in, cands, &sc.LT)
		sc.cw = convWide{In: in, Scratch: sc}
		return dual.Search(ctx, &sc.cw, moldable.Time(float64(est.Omega)/convKappa), 2*est.Omega, eps/2)
	}
	est := lt.EstimateScratch(in, &sc.LT)
	sc.cv = Conv{In: in, Eps: eps / 2, Scratch: sc}
	return dual.Search(ctx, &sc.cv, est.Omega, 2*est.Omega, eps/2)
}
