package moldable

// Closed-form job families. The paper's compact encoding assumes an
// O(1) oracle, and the closed-form speedup models (Amdahl, power law,
// perfect speedup, sequential, communication overhead, and Capped or
// Scaled around any of them) are monotone by their parameters alone, so
// CheckMonotone proves them monotone from their parameters instead of
// probing.
//
// Proven-monotone parameter domain (DESIGN.md §3):
//
//	Amdahl          Seq, Par ∈ {0} ∪ [paramMin, paramMax]
//	Power           W ∈ [paramMin, paramMax], Alpha ∈ [0, 1]
//	PerfectSpeedup  W ∈ [paramMin, paramMax]
//	Sequential      T ∈ [paramMin, paramMax]
//	Comm            W ∈ [paramMin, paramMax], C ∈ {0} ∪ [paramMin, paramMax]
//	Capped          Max ≥ 1, J proven
//	Scaled          Factor ∈ [paramMin, paramMax], J proven
//
// with at most provenDepth Capped/Scaled wrappers. Anything else — a
// parameter outside its domain (NaN included), deeper nesting, Table,
// Piecewise, user-defined jobs — is probed as before.

import "math"

const (
	// The parameter bounds keep the proof true in floating point, not
	// just in the reals. With every non-zero parameter in
	// [1e-30, 1e30], at most provenDepth wrappers and p < 2^63, each
	// processing time lies in [1e-289, 1e271]: a normal, finite float.
	// Each evaluation is then within a few ulps (≈1e-15 relative) of a
	// real function that is exactly monotone, far inside the 1e-12
	// slack CheckMonotone allows, so the scan would accept every job
	// the proof accepts (TestParameterProofImpliesScan).
	paramMin    = 1e-30
	paramMax    = 1e30
	provenDepth = 8
)

// inDomain reports whether x is a finite parameter within the proof's
// magnitude bounds; NaN fails every comparison.
func inDomain(x Time) bool { return x >= paramMin && x <= paramMax }

// inDomainOrZero is inDomain widened to admit an exact zero.
func inDomainOrZero(x Time) bool { return x == 0 || inDomain(x) }

// provenMonotone reports whether j's parameters alone prove it monotone
// on every processor count (see the domain table above); depth counts
// the enclosing Capped/Scaled wrappers. The t(1) > 0 requirement is not
// part of the proof: CheckMonotone checks it for every job.
func provenMonotone(j Job, depth int) bool {
	switch j := j.(type) {
	case Amdahl:
		return inDomainOrZero(j.Seq) && inDomainOrZero(j.Par)
	case Power:
		return inDomain(j.W) && j.Alpha >= 0 && j.Alpha <= 1
	case PerfectSpeedup:
		return inDomain(j.W)
	case Sequential:
		return inDomain(j.T)
	case Comm:
		return inDomain(j.W) && inDomainOrZero(j.C)
	case Capped:
		return j.Max >= 1 && depth < provenDepth && provenMonotone(j.J, depth+1)
	case Scaled:
		return inDomain(j.Factor) && depth < provenDepth && provenMonotone(j.J, depth+1)
	}
	return false
}

// powerSpan bounds the processor count at which GammaSeed trusts a
// Power job's inverse. math.Pow is not proven monotone, so where the
// relative drop t(p) − t(p+1) ≈ α/p falls to a few ulps the float
// oracle may not be, and the γ boundary may not be unique. Below
// α·powerSpan each step drops by at least about 2^-41, ~2^11 ulps.
const powerSpan = 1 << 40

// commFlatRatio bounds W/C for a Comm job GammaSeed trusts. Then
// q* = √(W/C) ≤ 2^20, and each step of t(p) = min_{q≤p} W/q + C(q−1)
// before q* drops by at least 1/(2q*²) ≥ 2^-41 relative, while every
// W/p + C(p−1) past q* lies as far above the minimum: the float oracle
// is non-increasing, and then constant from ⌈q*⌉ on.
const commFlatRatio = 1 << 40

// GammaSeed returns a real x with γ_j(t) ≈ ⌈x⌉, read off the inverse of
// a closed-form speedup model inside the proven domain: Amdahl
// Par/(t−Seq), Power (W/t)^(1/α), PerfectSpeedup W/t, and for Comm the
// smaller root of C·p² − (t+C)·p + W = 0. x may be below 1 or +Inf (no
// processor count meets t); it is never NaN when ok. A *CountingJob is
// seen through, so its calls are still counted by whoever verifies x.
//
// ok is false, and γ is left to a bisection of [1, m], for every other
// job type, for a NaN t, for flat oracles (Sequential, Power with α = 0,
// Amdahl with Par = 0: the bisection's endpoint checks settle them in
// two calls), and where the γ boundary might not be unique in floating
// point: a Power answer beyond α·powerSpan, a Comm job with W/C beyond
// commFlatRatio. The seed is only a guess; package gamma verifies it
// against the oracle.
func GammaSeed(j Job, t Time) (x float64, ok bool) {
	if t != t {
		return 0, false
	}
	switch j := j.(type) {
	case Amdahl:
		if !inDomainOrZero(j.Seq) || !inDomain(j.Par) {
			return 0, false // Par = 0 is flat, like Sequential
		}
		return positiveInverse(j.Par, t-j.Seq), true
	case PerfectSpeedup:
		if !inDomain(j.W) {
			return 0, false
		}
		return positiveInverse(j.W, t), true
	case Power:
		if !inDomain(j.W) || !(j.Alpha > 0 && j.Alpha <= 1) {
			return 0, false
		}
		x := positiveInverse(j.W, t)
		if j.Alpha < 1 {
			// exp(ln x / α) is a few ulps looser than math.Pow and
			// about half its cost; a seed only has to land near γ.
			x = math.Exp(math.Log(x) / j.Alpha)
			if !(x <= j.Alpha*powerSpan) {
				return 0, false
			}
		}
		return x, true
	case Comm:
		if !inDomain(j.W) || !inDomainOrZero(j.C) {
			return 0, false
		}
		if j.C == 0 || !(t > 0) {
			return positiveInverse(j.W, t), true
		}
		if !(j.W <= j.C*commFlatRatio) {
			return 0, false
		}
		b := t + j.C
		disc := b*b - 4*j.C*j.W
		if disc < -1e-12*b*b {
			return math.Inf(1), true // t below the minimum time
		}
		// 2W / (b + √disc) is the smaller root without cancellation; a
		// t at the minimum, rounded just below it, gets the vertex.
		return 2 * j.W / (b + math.Sqrt(max(disc, 0))), true
	case *CountingJob:
		return GammaSeed(j.J, t)
	}
	return 0, false
}

// positiveInverse returns w/t for t > 0 and +Inf otherwise: then no
// processor count brings the time w/p (plus any non-negative part) to
// or below t.
func positiveInverse(w, t Time) float64 {
	if t > 0 {
		return w / t
	}
	return math.Inf(1)
}
