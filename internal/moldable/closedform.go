package moldable

// Closed-form job families. The paper's compact encoding assumes an
// O(1) oracle, and the closed-form speedup models (Amdahl, power law,
// perfect speedup, sequential, communication overhead, and Capped or
// Scaled around any of them) are monotone by their parameters alone.
// Two serving-path costs follow: CheckMonotone proves them monotone
// from their parameters instead of probing, and MemoizeInstance leaves
// them (and the other O(1) oracles) unwrapped, since a cache in front
// of a few flops costs more than it saves.
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
// Piecewise, EnvelopeTable, Memo, user-defined jobs — is probed as
// before.

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

// NeedsMemo reports whether memoizing j can pay off. It is false for
// oracles that answer in O(1) — the closed forms, Table, Piecewise
// (a binary search over its few configurations) and Capped/Scaled
// around them — and true for EnvelopeTable (O(p) per call), for an
// existing Memo, and for every job type this package cannot see into.
func NeedsMemo(j Job) bool {
	switch j := j.(type) {
	case Amdahl, Power, PerfectSpeedup, Sequential, Comm, Table, Piecewise:
		return false
	case Capped:
		return NeedsMemo(j.J)
	case Scaled:
		return NeedsMemo(j.J)
	}
	return true
}
