// Package moldable defines the moldable-job model of Jansen & Land:
// jobs whose processing time t_j(k) depends on the number k of allotted
// processors, accessed through a constant-time oracle (compact encoding).
//
// A job is monotone when t_j(k) is non-increasing and the work
// w_j(k) = k·t_j(k) is non-decreasing in k. All scheduling algorithms in
// this module assume monotone jobs; Validate and CheckMonotone verify the
// assumption.
package moldable

import (
	"fmt"
	"math"
)

// Time is a processing time, duration, or makespan. Times are finite and
// non-negative; a positive processing time on one processor is required
// for every job.
type Time = float64

// Job is the processing-time oracle. Time must be defined for every
// p ≥ 1; callers never pass p < 1. Implementations must be cheap (O(1))
// and deterministic: the whole point of the paper is that algorithms may
// query t_j(k) but never enumerate all m values.
type Job interface {
	// Time returns t_j(p), the processing time on p processors.
	Time(p int) Time
}

// Work returns w_j(p) = p·t_j(p), the total work of job j on p processors.
func Work(j Job, p int) Time {
	return Time(p) * j.Time(p)
}

// Amdahl is a job following Amdahl's law: a sequential fraction plus a
// perfectly parallelizable fraction, t(p) = Seq + Par/p.
// Monotone: t is decreasing, w(p) = p·Seq + Par is increasing.
type Amdahl struct {
	Seq Time // sequential part, ≥ 0
	Par Time // parallelizable part, ≥ 0 (Seq+Par > 0)
}

// Time returns Seq + Par/p.
func (a Amdahl) Time(p int) Time { return a.Seq + a.Par/Time(p) }

// Power is a job with power-law speedup t(p) = W / p^Alpha with
// Alpha ∈ [0,1]. Work w(p) = W·p^(1−Alpha) is non-decreasing, so the job
// is monotone. Alpha = 1 is perfect speedup, Alpha = 0 no speedup.
type Power struct {
	W     Time    // time on one processor, > 0
	Alpha float64 // speedup exponent in [0,1]
}

// Time returns W / p^Alpha.
func (pw Power) Time(p int) Time { return pw.W / math.Pow(Time(p), pw.Alpha) }

// PerfectSpeedup is a job with t(p) = W/p (constant work). It is the
// workhorse of planted-optimum instances: any packing of constant-work
// jobs that fills m processors with no idle time is optimal.
type PerfectSpeedup struct {
	W Time // total work, > 0
}

// Time returns W/p.
func (ps PerfectSpeedup) Time(p int) Time { return ps.W / Time(p) }

// Sequential is a job with no speedup at all: t(p) = T for every p.
// Monotone (work p·T is increasing), and the worst case for parallelism.
type Sequential struct {
	T Time // processing time, > 0
}

// Time returns T regardless of p.
func (s Sequential) Time(int) Time { return s.T }

// Comm models a parallel job with per-processor communication overhead:
// the raw time on q processors is W/q + C·(q−1), which is not monotone in
// q beyond q* ≈ √(W/C). Comm reports the best achievable time with AT
// MOST p processors, t(p) = min_{1≤q≤p} W/q + C·(q−1), which restores
// monotonicity: t is non-increasing by construction and the work p·t(p)
// is non-decreasing (t is constant once q* is reached, and before that
// w(p) = W + C·p·(p−1) grows).
type Comm struct {
	W Time // parallelizable work, > 0
	C Time // per-extra-processor communication cost, ≥ 0
}

// Time returns min over q ≤ p of W/q + C(q−1).
func (c Comm) Time(p int) Time {
	if c.C <= 0 {
		return c.W / Time(p)
	}
	// The continuous minimizer of W/q + C(q−1) is q = √(W/C). Clamp to
	// [1,p] and check the two integer neighbours.
	qf := math.Sqrt(c.W / c.C)
	best := math.Inf(1)
	for _, q := range [...]int{int(math.Floor(qf)), int(math.Ceil(qf)), 1, p} { //schedlint:ignore fpconv probes BOTH integer neighbours of √(W/C), so either rounding of an exact integer is still covered
		if q < 1 {
			q = 1
		}
		if q > p {
			q = p
		}
		if t := c.W/Time(q) + c.C*Time(q-1); t < best {
			best = t
		}
	}
	return best
}

// Table is a job given by an explicit list of processing times, the
// "non-compact" encoding of the classical literature. Time(p) for
// p > len(T) returns the last entry (extra processors are left idle).
// Table does not monotonize its input; use MonotoneTable for that.
type Table struct {
	T []Time // T[k-1] = processing time on k processors; len ≥ 1
}

// Time returns T[min(p,len(T))-1].
func (tb Table) Time(p int) Time {
	if p > len(tb.T) {
		p = len(tb.T)
	}
	return tb.T[p-1]
}

// MonotoneTable builds a Table whose entries are forced to satisfy both
// monotonicity conditions, scanning the raw times once: the processing
// time is clamped to be non-increasing, then the work is clamped to be
// non-decreasing (t[k] = max(t[k], (k-1)·t[k-1]/k) keeps t non-increasing
// because the original t[k-1] ≥ (k-1)/k·t[k-1]).
func MonotoneTable(raw []Time) Table {
	t := make([]Time, len(raw))
	copy(t, raw)
	for k := 1; k < len(t); k++ {
		if t[k] > t[k-1] { // enforce non-increasing time
			t[k] = t[k-1]
		}
		if lw := Time(k) * t[k-1]; Time(k+1)*t[k] < lw { // enforce non-decreasing work
			t[k] = lw / Time(k+1)
		}
	}
	return Table{T: t}
}

// Envelope builds the Table of raw per-configuration measurements that
// are not guaranteed monotone (timings scraped from a performance
// model, a trace store, or benchmark runs): the usable processing time
// with at most p processors is the running minimum
//
//	t(p) = min_{1 ≤ q ≤ min(p, len(raw))} raw[q-1],
//
// folded once here, so each query is O(1) as the paper's oracle model
// assumes. This is the wire type "envelope". The running minimum makes
// t non-increasing, but work p·t(p) can still decrease if raw drops
// faster than 1/p; Validate checks that as for any table.
func Envelope(raw []Time) Table {
	t := make([]Time, len(raw))
	copy(t, raw)
	for k := 1; k < len(t); k++ {
		if !(t[k] < t[k-1]) {
			t[k] = t[k-1]
		}
	}
	return Table{T: t}
}

// Scaled wraps a job and multiplies all its times by Factor. Scaling
// preserves monotonicity.
type Scaled struct {
	J      Job
	Factor Time // > 0
}

// Time returns Factor·J.Time(p).
func (s Scaled) Time(p int) Time { return s.Factor * s.J.Time(p) }

// Capped wraps a job and ignores processors beyond Max: extra processors
// are left idle, t(p) = J.Time(min(p, Max)). Time stays non-increasing;
// the work k·t(k) stays non-decreasing because it is unchanged up to Max
// and increases linearly afterwards.
type Capped struct {
	J   Job
	Max int // ≥ 1
}

// Time returns J.Time(min(p, Max)).
func (c Capped) Time(p int) Time {
	if p > c.Max {
		p = c.Max
	}
	return c.J.Time(p)
}

// String representations for debugging and instance dumps.

func (a Amdahl) String() string          { return fmt.Sprintf("amdahl(seq=%g,par=%g)", a.Seq, a.Par) }
func (pw Power) String() string          { return fmt.Sprintf("power(w=%g,alpha=%g)", pw.W, pw.Alpha) }
func (ps PerfectSpeedup) String() string { return fmt.Sprintf("perfect(w=%g)", ps.W) }
func (s Sequential) String() string      { return fmt.Sprintf("seq(t=%g)", s.T) }
func (c Comm) String() string            { return fmt.Sprintf("comm(w=%g,c=%g)", c.W, c.C) }
func (tb Table) String() string          { return fmt.Sprintf("table(%d)", len(tb.T)) }

// Piecewise models a job that only scales at discrete configuration
// sizes (e.g. powers of two of MPI ranks): Procs lists increasing
// processor counts and Times the corresponding processing times; between
// configurations the job uses the largest configuration that fits, so
// t(p) = Times[i] for the largest i with Procs[i] ≤ p. Extra processors
// idle, exactly like Capped. The pair lists must satisfy
// Times non-increasing and Procs[i]·... — monotone work is checked by
// NewPiecewise.
type Piecewise struct {
	Procs []int  // strictly increasing, Procs[0] = 1
	Times []Time // same length, positive, non-increasing
}

// NewPiecewise validates the configuration lists and clamps them into a
// monotone job: times are made non-increasing and work non-decreasing
// at the configuration points (interior points inherit monotonicity
// because t is a step function of the chosen configuration).
func NewPiecewise(procs []int, times []Time) (Piecewise, error) {
	if len(procs) == 0 || len(procs) != len(times) {
		return Piecewise{}, fmt.Errorf("moldable: piecewise needs equal-length non-empty lists")
	}
	if procs[0] != 1 {
		return Piecewise{}, fmt.Errorf("moldable: piecewise must start at 1 processor")
	}
	p := Piecewise{Procs: append([]int(nil), procs...), Times: append([]Time(nil), times...)}
	for i := 1; i < len(procs); i++ {
		if procs[i] <= procs[i-1] {
			return Piecewise{}, fmt.Errorf("moldable: piecewise processor counts must increase")
		}
		if !(times[i] > 0) {
			return Piecewise{}, fmt.Errorf("moldable: piecewise times must be positive")
		}
		if p.Times[i] > p.Times[i-1] { // enforce non-increasing time
			p.Times[i] = p.Times[i-1]
		}
		// Enforce non-decreasing work at the jump to config i: the last
		// integer before the jump is q = Procs[i]−1 with time Times[i-1]
		// (config i−1 plus idle processors), so we need
		// Procs[i]·Times[i] ≥ (Procs[i]−1)·Times[i-1]. The clamp stays
		// ≤ Times[i-1], so the time remains non-increasing.
		if minW := Time(p.Procs[i]-1) * p.Times[i-1]; Time(p.Procs[i])*p.Times[i] < minW {
			p.Times[i] = minW / Time(p.Procs[i])
		}
	}
	return p, nil
}

// Time returns the time of the largest configuration with Procs ≤ p.
func (pw Piecewise) Time(p int) Time {
	// binary search: last config index with Procs[i] ≤ p
	lo, hi := 0, len(pw.Procs)-1
	if p >= pw.Procs[hi] {
		return pw.Times[hi]
	}
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if pw.Procs[mid] <= p {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return pw.Times[lo]
}

func (pw Piecewise) String() string { return fmt.Sprintf("piecewise(%d configs)", len(pw.Procs)) }
