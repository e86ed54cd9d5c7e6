// Package lt implements the Ludwig–Tiwari estimation algorithm for
// monotone moldable jobs (§3 of Jansen & Land, citing [18]): it computes
// an allotment minimizing ω(a) = max(W(a)/m, max_j t_j(a_j)) over all
// allotments, in time polylogarithmic in m. ω satisfies ω ≤ OPT ≤ 2ω;
// list scheduling the canonical allotment yields the classical
// 2-approximation.
//
// Note: Eq. (2) of the paper prints ω with "min" instead of "max"; as
// written OPT ≤ 2ω fails (a single job with no speedup gives
// min(W/m, t) ≪ OPT). Ludwig & Tiwari's estimator uses max, which we
// implement; see DESIGN.md §3.
//
// Algorithm: for monotone jobs the minimizing allotment can be assumed
// canonical, a_j = γ_j(τ) for some threshold τ, and the objective
// f(τ) = max(W(τ)/m, T(τ)) only changes at breakpoints τ = t_j(p). W is
// non-increasing and T non-decreasing in τ, so f is minimized at v̂, the
// least breakpoint where W/m ≤ T, or at its predecessor. v̂ is found by a
// Frederickson–Johnson style matrix search over the n implicit sorted
// breakpoint lists (one per job, indexed by processor count), using
// O(log nm) weighted-median rounds. A round selects its weighted median
// in linear time and makes one γ pass over the jobs; a job answers from
// the bracket of its last γ search when the bracket holds the round's
// value, which it does once no breakpoint of the job is left in play, so
// a round searches (O(log m) oracle calls, O(1) for the closed forms)
// only for the jobs still in play. See DESIGN.md §3.
package lt

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/arena"
	"repro/internal/gamma"
	"repro/internal/listsched"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// Result of the estimation.
type Result struct {
	Omega  moldable.Time // ω: ω ≤ OPT ≤ 2ω
	VStar  moldable.Time // threshold whose canonical allotment attains ω
	Allot  []int         // a_j = γ_j(VStar); owned by the Scratch when one is supplied
	Rounds int           // matrix-search rounds (diagnostics)
}

// Scratch holds the reusable buffers of one estimation call chain
// (see internal/arena): interval bounds, per-job γ brackets,
// weighted-median rounds, surviving breakpoint values, and the result
// allotment. A Scratch must not be shared between concurrent calls; the
// zero value is ready to use.
type Scratch struct {
	a, b   []int
	br     []bracket
	med    []wtuple
	values []moldable.Time
	allot  []int
}

// bracket is a job's last γ search (gamma.Search): the count g, 0 when
// undefined, with tg = t(g) and tprev = t(g−1). It holds a threshold v
// when tg ≤ v < tprev (strict: tg < v ≤ tprev), and then, t being
// non-increasing, g is the search's answer at v too.
type bracket struct {
	g         int
	tg, tprev moldable.Time
}

// gamma returns γ_j(v) (strict: min{p : t_j(p) < v}), 0 when undefined,
// and t_j of it: from the bracket when it holds v, else from a search
// that replaces the bracket.
//
//sched:hotpath
func (br *bracket) gamma(j moldable.Job, m int, v moldable.Time, strict bool) (int, moldable.Time) {
	if strict && !(br.tg < v && v <= br.tprev) || !strict && !(br.tg <= v && v < br.tprev) {
		br.g, br.tg, br.tprev, _ = gamma.Search(j, m, v, strict)
	}
	return br.g, br.tg
}

// initBrackets sizes br for in and starts job i at γ_i(t_i(1)) = 1, the
// bracket [t_i(1), +Inf). It returns br and vmax = max_i t_i(1).
func initBrackets(in *moldable.Instance, br []bracket) ([]bracket, moldable.Time) {
	br = arena.Grow(br, in.N())
	vmax := moldable.Time(0)
	for i, j := range in.Jobs {
		t := j.Time(1)
		br[i] = bracket{g: 1, tg: t, tprev: math.Inf(1)}
		if t > vmax {
			vmax = t
		}
	}
	return br, vmax
}

// evalResult is f(v) = max(W(v)/m, T(v)) split into parts.
type evalResult struct {
	w, t     moldable.Time
	feasible bool
}

//sched:hotpath
func (e evalResult) f(m int) moldable.Time {
	if !e.feasible {
		return math.Inf(1)
	}
	return math.Max(e.w/moldable.Time(m), e.t)
}

// evaluate is the γ pass at v: it returns f(v)'s parts and leaves
// γ_i(v) and t_i(γ_i(v)) in br[i].g and br[i].tg for every job i.
//
//sched:hotpath
func evaluate(in *moldable.Instance, br []bracket, v moldable.Time) evalResult {
	res := evalResult{feasible: true}
	for i, j := range in.Jobs {
		g, tg := br[i].gamma(j, in.M, v, false)
		if g == 0 {
			res.feasible = false
			continue
		}
		res.w += moldable.Time(g) * tg
		if tg > res.t {
			res.t = tg
		}
	}
	return res
}

// pred reports whether W(v)/m ≤ T(v) at a feasible v — the flip predicate
// of the matrix search. Infeasible v (some γ undefined) report false, so
// the predicate stays monotone in v.
//
//sched:hotpath
func pred(in *moldable.Instance, br []bracket, v moldable.Time) bool {
	e := evaluate(in, br, v)
	return e.feasible && e.w/moldable.Time(in.M) <= e.t
}

// tuple is a breakpoint with a global tie-break order so that all
// candidate tuples are distinct: value ascending, then job ascending,
// then processor count DEscending (within a plateau of equal times,
// larger counts compare smaller, which keeps per-job keep-sets
// contiguous).
type tuple struct {
	v moldable.Time
	j int
	p int
}

func tupleLess(a, b tuple) bool {
	if a.v != b.v {
		return a.v < b.v
	}
	if a.j != b.j {
		return a.j < b.j
	}
	return a.p > b.p
}

// wtuple is a candidate median tuple weighted by the size of the
// active interval it represents.
type wtuple struct {
	tuple
	w int64
}

// wtupleCmp orders wtuples for the selection's final sort. A
// package-level function (not a closure) so sorting stays
// allocation-free on the hot path.
func wtupleCmp(x, y wtuple) int {
	if tupleLess(x.tuple, y.tuple) {
		return -1
	}
	if tupleLess(y.tuple, x.tuple) {
		return 1
	}
	return 0
}

// weightedMedian returns the first tuple of med, in tupleLess order,
// at which the running weight reaches half of sum, the total weight.
// The tuples are distinct (one per job), so the pick is unique: it is
// the tuple a scan of the sorted med would stop at. A quickselect finds
// it in expected linear time, reordering med. Once at most 16 tuples
// remain, or after 2·log₂ len(med) partition passes, it sorts what is
// left, so the worst case stays O(n log n).
//
//sched:hotpath
func weightedMedian(med []wtuple, sum int64) tuple {
	// The answer lies in med[lo:hi], every tuple below lo sorts before
	// it, and need is half of sum minus their weight.
	need := (sum + 1) / 2 // cum·2 ≥ sum ⇔ cum ≥ ⌈sum/2⌉
	lo, hi := 0, len(med)
	for pass, limit := 0, 2*bits.Len(uint(len(med))); hi-lo > 16 && pass < limit; pass++ {
		k, wl := partition(med[lo:hi])
		k += lo
		switch {
		case wl >= need:
			hi = k
		case wl+med[k].w >= need:
			return med[k].tuple
		default:
			need -= wl + med[k].w
			lo = k + 1
		}
	}
	rest := med[lo:hi]
	slices.SortFunc(rest, wtupleCmp)
	for _, wt := range rest[:len(rest)-1] {
		if need -= wt.w; need <= 0 {
			return wt.tuple
		}
	}
	return rest[len(rest)-1].tuple
}

// partition moves the median of s's first, middle and last tuples to
// index k, the tuples below it to s[:k] and those above to s[k+1:], and
// returns k with the weight of s[:k]. len(s) ≥ 3.
func partition(s []wtuple) (k int, wl int64) {
	last, mid := len(s)-1, len(s)/2
	if tupleLess(s[mid].tuple, s[0].tuple) {
		s[mid], s[0] = s[0], s[mid]
	}
	if tupleLess(s[last].tuple, s[0].tuple) {
		s[last], s[0] = s[0], s[last]
	}
	if tupleLess(s[mid].tuple, s[last].tuple) {
		s[mid], s[last] = s[last], s[mid]
	}
	pivot := s[last].tuple
	for i := range s[:last] {
		if tupleLess(s[i].tuple, pivot) {
			wl += s[i].w
			s[i], s[k] = s[k], s[i]
			k++
		}
	}
	s[k], s[last] = s[last], s[k]
	return k, wl
}

// Estimate computes ω and the canonical allotment attaining it.
func Estimate(in *moldable.Instance) Result {
	return EstimateScratch(in, nil)
}

// EstimateScratch is Estimate with caller-supplied scratch buffers: a
// warm Scratch makes the whole estimation allocation-free. The
// returned Result.Allot aliases the scratch and is valid until its
// next use; a nil scratch uses fresh buffers (then the caller owns the
// result outright).
//
//sched:owns-result
func EstimateScratch(in *moldable.Instance, sc *Scratch) Result {
	if sc == nil {
		sc = &Scratch{}
	}
	n, m := in.N(), in.M
	// vmax = max_j t_j(1) is the largest breakpoint; it is always
	// feasible. If even vmax has W/m > T, no breakpoint flips the
	// predicate and f is minimized at vmax.
	br, vmax := initBrackets(in, sc.br)
	sc.br = br
	if !pred(in, br, vmax) {
		return finalize(in, vmax, math.Inf(1), 0, sc)
	}

	// Per-job active interval [a_i, b_i] of processor counts whose
	// breakpoints may still be v̂ (the least breakpoint satisfying pred).
	a := arena.Grow(sc.a, n)
	b := arena.Grow(sc.b, n)
	sc.a, sc.b = a, b
	for i := range a {
		a[i], b[i] = 1, m
	}
	total := int64(n) * int64(m)
	rounds := 0
	med := sc.med[:0]
	for total > int64(4*n) && rounds < 300 {
		rounds++
		med = med[:0]
		var sum int64
		for i := 0; i < n; i++ {
			if a[i] > b[i] {
				continue
			}
			pm := a[i] + (b[i]-a[i])/2
			w := int64(b[i] - a[i] + 1)
			med = append(med, wtuple{tuple{in.Jobs[i].Time(pm), i, pm}, w})
			sum += w
		}
		if len(med) == 0 {
			break
		}
		tmed := weightedMedian(med, sum)
		// Job i's tuples ≤ tmed are its counts from the first one
		// meeting tmed.v — non-strictly for jobs before tmed.j, strictly
		// after it (the tie-break order of tupleLess). The γ pass of
		// pred leaves the non-strict count in br[i]; the strict one
		// differs only where t_i(γ) = tmed.v.
		keepLow := pred(in, br, tmed.v) // v̂ ≤ tmed
		for i := 0; i < n; i++ {
			if a[i] > b[i] {
				continue
			}
			x := br[i].g
			switch {
			case i == tmed.j:
				x = tmed.p
			case i > tmed.j && br[i].tg == tmed.v:
				x, _ = br[i].gamma(in.Jobs[i], m, tmed.v, true)
			}
			if x == 0 {
				x = m + 1 // every tuple of job i lies above tmed
			}
			if keepLow {
				// Keep tuples ≤ tmed: keep-sets are suffixes [x, m].
				a[i] = max(a[i], x)
			} else {
				// Keep tuples > tmed: keep-sets are prefixes [1, x−1].
				b[i] = min(b[i], x-1)
			}
		}
		total = 0
		for i := 0; i < n; i++ {
			if a[i] <= b[i] {
				total += int64(b[i] - a[i] + 1)
			}
		}
	}
	sc.med = med

	// Collect the surviving candidate values and binary search the least
	// one satisfying the predicate. v̂ is guaranteed to have survived.
	if int64(cap(sc.values)) < total+1 {
		sc.values = make([]moldable.Time, 0, total+1)
	}
	values := sc.values[:0]
	for i := 0; i < n; i++ {
		for p := a[i]; p <= b[i]; p++ {
			values = append(values, in.Jobs[i].Time(p))
		}
	}
	values = append(values, vmax) // safety: pred(vmax) holds
	sc.values = values
	slices.Sort(values)
	values = dedupe(values)
	lo, hi := 0, len(values)-1 // invariant: pred(values[hi]) true
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pred(in, br, values[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	vhat := values[hi]

	// Predecessor: the largest breakpoint strictly below v̂ across all
	// jobs (the minimum of f may be there, where f = W/m).
	predv := math.Inf(-1)
	for i, j := range in.Jobs {
		if g, tg := br[i].gamma(j, m, vhat, true); g != 0 && tg > predv {
			predv = tg
		}
	}
	return finalize(in, vhat, predv, rounds, sc)
}

// finalize picks the better of v̂ and its predecessor. Both are
// feasible when chosen, so every γ of the allotment is defined.
//
//sched:owns-result
func finalize(in *moldable.Instance, vhat, predv moldable.Time, rounds int, sc *Scratch) Result {
	br := sc.br
	fh := evaluate(in, br, vhat).f(in.M)
	vstar, omega := vhat, fh
	if !math.IsInf(predv, 0) {
		if fp := evaluate(in, br, predv).f(in.M); fp < omega {
			vstar, omega = predv, fp
		}
	}
	allot := arena.Grow(sc.allot, in.N())
	sc.allot = allot
	for i, j := range in.Jobs {
		allot[i], _ = br[i].gamma(j, in.M, vstar, false)
	}
	return Result{Omega: omega, VStar: vstar, Allot: allot, Rounds: rounds}
}

func dedupe(v []moldable.Time) []moldable.Time {
	out := v[:0]
	for i, x := range v {
		if i == 0 || x != v[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// TwoApprox is the classical 2-approximation: estimate, then list
// schedule the canonical allotment. The resulting makespan is at most
// W/m + T ≤ 2ω ≤ 2·OPT.
func TwoApprox(in *moldable.Instance) (*schedule.Schedule, Result) {
	res := Estimate(in)
	return listsched.Greedy(in, res.Allot), res
}
