package lt

import (
	"math"
	"sort"

	"repro/internal/gamma"
	"repro/internal/moldable"
)

// EstimateBrute enumerates every breakpoint t_j(p) and minimizes f
// directly. O(nm·n log m); for tests on small instances only.
func EstimateBrute(in *moldable.Instance) Result {
	var values []moldable.Time
	for _, j := range in.Jobs {
		for p := 1; p <= in.M; p++ {
			values = append(values, j.Time(p))
		}
	}
	sort.Float64s(values)
	values = dedupe(values)
	var br []bracket
	best := Result{Omega: math.Inf(1)}
	for _, v := range values {
		// Fresh brackets: every γ below t_j(1) is searched, so the
		// reference does not rest on bracket reuse.
		br, _ = initBrackets(in, br)
		if f := evaluate(in, br, v).f(in.M); f < best.Omega {
			best.Omega = f
			best.VStar = v
		}
	}
	allot := make([]int, in.N())
	for i, j := range in.Jobs {
		g, _ := gamma.Gamma(j, in.M, best.VStar)
		allot[i] = g
	}
	best.Allot = allot
	return best
}
