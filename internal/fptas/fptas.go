// Package fptas implements the FPTAS of Jansen & Land §3 (Theorem 2) for
// instances with many machines, m ≥ 8n/ε. The dual algorithm is
// remarkably simple: allot γ_j((1+ε)d) processors to every job and run
// them all simultaneously; reject if more than m processors are needed.
// Monotonicity (via the compression Lemma 4) proves that the allotment
// fits whenever a schedule of makespan d exists, so the algorithm is
// (1+ε)-dual approximate. One call costs O(n log m) oracle time, and the
// full binary search O(n log m (log m + log 1/ε)) — fully polynomial in
// the compact encoding. The package exports the dual only; internal/core
// runs it inside the Theorem-3 pipeline (estimator, then dual search).
package fptas

import (
	"repro/internal/compress"
	"repro/internal/gamma"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// Dual is the (1+ε)-dual algorithm of §3. Its rejection guarantee
// requires m ≥ 8n/ε (checked by Applicable).
type Dual struct {
	In  *moldable.Instance
	Eps float64 // ε ∈ (0, 1]
	// Scratch, when non-nil, makes Try reuse schedule buffers across
	// probes (swap-on-success double buffering, see
	// schedule.DoubleBuffer): the returned schedule is then owned by
	// the scratch and valid only until the search's next accepted
	// probe. Nil keeps the allocate-per-Try behavior.
	Scratch *Scratch
}

// Scratch holds the dual's schedule double buffer (see internal/arena).
// Zero value ready; not safe for concurrent use.
type Scratch struct {
	Sched schedule.DoubleBuffer
}

// Applicable reports whether the large-machine condition m ≥ 8n/ε holds,
// which the correctness proof (Lemma 5 and the narrow/wide split) needs.
func Applicable(n, m int, eps float64) bool {
	return float64(m) >= 8*float64(n)/eps
}

// Guarantee returns 1+ε.
func (a *Dual) Guarantee() float64 { return 1 + a.Eps }

// Try allots γ_j((1+ε)d) processors to every job and schedules all jobs
// at time zero. It rejects iff some job cannot meet (1+ε)d on m
// processors or the total allotment exceeds m. With a Scratch, the
// returned schedule is the scratch's double buffer.
//
//sched:hotpath
//sched:owns-result
func (a *Dual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	t := (1 + a.Eps) * d
	in := a.In
	var s *schedule.Schedule
	if a.Scratch != nil {
		s = a.Scratch.Sched.Spare(in.M)
	} else {
		s = schedule.New(in.M)
	}
	used := 0
	for i, j := range in.Jobs {
		g, ok := gamma.Gamma(j, in.M, t)
		if !ok {
			return nil, false
		}
		used += g
		if used > in.M {
			return nil, false
		}
		s.Add(i, g, 0, j.Time(g))
	}
	if a.Scratch != nil {
		a.Scratch.Sched.Commit()
	}
	return s, true
}

// MinM returns the least m for which the full FPTAS can certify a
// (1+eps) guarantee on n jobs: the dual uses ε/2 and needs
// m ≥ 8n/(ε/2). The quotient is epsilon-guarded: for eps values like 0.1 the float64
// result of 16n/ε lands a few ulps above the exact integer, and an
// unguarded Ceil would demand one machine too many — misclassifying
// exact-boundary fleets into the (3/2+ε) regime.
func MinM(n int, eps float64) int {
	return compress.CeilInt(16 * float64(n) / eps)
}

// AllotmentRule2 is the second allotment rule of §3.1, used in the
// paper to PROVE that the simple rule fits m processors: allot γ_j(d)
// to every job, then compress every job using at least 4/ε processors
// with factor ρ = ε/4 (Lemma 4), so each processing time stays within
// (1+ε)d. The paper shows (Lemma 5 plus the narrow/wide accounting)
// that the result needs at most m processors whenever d ≥ OPT and
// m ≥ 8n/ε. Exposed so tests can exercise the analysis directly; the
// algorithm itself only needs Try.
//
// Returns the per-job processor counts (0 for jobs with γ undefined,
// with ok=false).
func AllotmentRule2(in *moldable.Instance, d moldable.Time, eps float64) (allot []int, total int, ok bool) {
	rho := eps / 4
	wide := compress.Threshold(rho)
	allot = make([]int, in.N())
	for i, j := range in.Jobs {
		g, gok := gamma.Gamma(j, in.M, d)
		if !gok {
			return allot, 0, false
		}
		if g >= wide {
			g = compress.CompressedProcs(g, rho)
		}
		allot[i] = g
		total += g
	}
	return allot, total, true
}

// GammaTotal returns Σ_j γ_j(d) and whether all γ are defined — the
// quantity bounded by Lemma 5 (< m + n when d ≥ OPT).
func GammaTotal(in *moldable.Instance, d moldable.Time) (int, bool) {
	total := 0
	for _, j := range in.Jobs {
		g, ok := gamma.Gamma(j, in.M, d)
		if !ok {
			return 0, false
		}
		total += g
	}
	return total, true
}
