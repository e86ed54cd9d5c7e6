// Package shelves implements the shelf machinery of Mounié, Rapine &
// Trystram as described in Jansen & Land §4.1: partitioning jobs into
// small and big for a target makespan d, building a two-shelf schedule
// from a knapsack solution, transforming it into a feasible three-shelf
// schedule with rules (i)–(iii) (Lemmas 7 and 8), and re-inserting the
// small jobs with a grouped next-fit (Lemma 9). It also contains the
// O(1/δ)-bucket variant of the transformation used by the linear-time
// algorithm of §4.3.3.
package shelves

import (
	"repro/internal/arena"
	"repro/internal/gamma"
	"repro/internal/moldable"
)

// Partition classifies the jobs of an instance for a target makespan τ.
type Partition struct {
	Tau   moldable.Time
	Small []int // t_j(1) ≤ τ/2: removed and re-added greedily at the end
	Big   []int // the rest
	Mand  []int // ⊆ Big: γ_j(τ/2) undefined (t_j(m) > τ/2), forced into S1
	Opt   []int // Big \ Mand: the knapsack decides their shelf

	// Per-job canonical processor counts (indexed by job id).
	G1   []int // γ_j(τ)
	G1OK []bool
	G2   []int // γ_j(τ/2)
	G2OK []bool

	WSmall moldable.Time // W_S(τ) = Σ_{small} t_j(1)
}

// Compute builds the partition into p, reusing p's buffers so a warm
// Partition recomputes without allocating (the scratch-reuse discipline
// of internal/arena). It returns false when some big job has γ_j(τ)
// undefined (t_j(m) > τ), in which case τ must be rejected: no schedule
// with makespan τ exists.
func Compute(p *Partition, in *moldable.Instance, tau moldable.Time) bool {
	n := in.N()
	p.Tau = tau
	p.Small = p.Small[:0]
	p.Big = p.Big[:0]
	p.Mand = p.Mand[:0]
	p.Opt = p.Opt[:0]
	p.G1 = arena.Zeroed(p.G1, n)
	p.G1OK = arena.Zeroed(p.G1OK, n)
	p.G2 = arena.Zeroed(p.G2, n)
	p.G2OK = arena.Zeroed(p.G2OK, n)
	p.WSmall = 0
	for j, job := range in.Jobs {
		if t1 := job.Time(1); t1 <= tau/2 {
			p.Small = append(p.Small, j)
			p.WSmall += t1
			continue
		}
		p.Big = append(p.Big, j)
		g1, ok1 := gamma.Gamma(job, in.M, tau)
		if !ok1 {
			return false
		}
		p.G1[j], p.G1OK[j] = g1, true
		g2, ok2 := gamma.Gamma(job, in.M, tau/2)
		p.G2[j], p.G2OK[j] = g2, ok2
		if ok2 {
			p.Opt = append(p.Opt, j)
		} else {
			p.Mand = append(p.Mand, j)
		}
	}
	return true
}

// Profit returns v_j(τ) = w_j(γ_j(τ/2)) − w_j(γ_j(τ)) for an optional
// big job — the work saved by placing j in shelf S1 instead of S2.
// Monotonicity guarantees v_j ≥ 0.
func (p *Partition) Profit(in *moldable.Instance, j int) moldable.Time {
	w2 := moldable.Work(in.Jobs[j], p.G2[j])
	w1 := moldable.Work(in.Jobs[j], p.G1[j])
	v := w2 - w1
	if v < 0 {
		return 0
	}
	return v
}

// MandSize returns Σ_{mandatory} γ_j(τ), the knapsack capacity consumed
// by the jobs that must sit in shelf S1.
func (p *Partition) MandSize() int {
	s := 0
	for _, j := range p.Mand {
		s += p.G1[j]
	}
	return s
}

// ShelfWork returns the work of the two-shelf schedule that puts shelf1
// (plus all mandatory jobs) in S1 and the remaining big jobs in S2:
// W(J′, τ) of Eq. (7).
func (p *Partition) ShelfWork(in *moldable.Instance, inS1 []bool) moldable.Time {
	var w moldable.Time
	for _, j := range p.Big {
		if inS1[j] {
			w += moldable.Work(in.Jobs[j], p.G1[j])
		} else {
			w += moldable.Work(in.Jobs[j], p.G2[j])
		}
	}
	return w
}
