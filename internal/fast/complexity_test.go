package fast

import (
	"context"
	"math"
	"testing"

	"repro/internal/dual"
	"repro/internal/fptas"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/mrt"
)

// TestOracleComplexityPolylogM asserts the paper's headline complexity
// claims at the oracle-call level (deterministic, no timer noise): for
// fixed n and growing m, one dual call of each improved algorithm uses
// O(n·polylog m) oracle calls (γ evaluations dominate), so calls at
// m = 2^24 may exceed calls at m = 2^12 by at most the log-factor
// ratio — nowhere near the ×4096 an O(nm) algorithm would show.
func TestOracleComplexityPolylogM(t *testing.T) {
	n := 128
	callsAt := func(mk func(in *moldable.Instance) dual.Algorithm, m int) int64 {
		t.Helper()
		base := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: 3})
		omega := lt.Estimate(base).Omega
		in, calls := moldable.Instrument(base)
		if _, ok := mk(in).Try(2 * omega); !ok {
			t.Fatal("dual rejected 2ω")
		}
		return calls()
	}
	makers := map[string]func(in *moldable.Instance) dual.Algorithm{
		"alg1":   func(in *moldable.Instance) dual.Algorithm { return &Alg1{In: in, Eps: 0.25} },
		"alg3":   func(in *moldable.Instance) dual.Algorithm { return &Alg3{In: in, Eps: 0.25} },
		"linear": func(in *moldable.Instance) dual.Algorithm { return &Alg3{In: in, Eps: 0.25, Buckets: true} },
	}
	for name, mk := range makers {
		c12 := callsAt(mk, 1<<12)
		c24 := callsAt(mk, 1<<24)
		// log²(2^24)/log²(2^12) = 4; allow slack 8 — far below ×4096.
		if float64(c24) > 8*float64(c12) {
			t.Errorf("%s: %d calls at m=2^24 vs %d at m=2^12 — not polylog", name, c24, c12)
		}
		if c24 > int64(40*n*24*24) {
			t.Errorf("%s: %d calls exceed O(n log²m) budget", name, c24)
		}
		t.Logf("%s: m=2^12 → %d calls; m=2^24 → %d calls (×%.2f)",
			name, c12, c24, float64(c24)/float64(c12))
	}
}

// TestMRTOracleAlsoPolylog: MRT's ORACLE complexity is polylog too — it
// is the DP work, not the oracle, that is linear in m. Verifies the
// decomposition the paper relies on (γ precomputation O(n log m), then
// an O(nm) dynamic program).
func TestMRTOracleAlsoPolylog(t *testing.T) {
	n := 64
	count := func(m int) (int64, int64) {
		base := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: 5})
		omega := lt.Estimate(base).Omega
		in, calls := moldable.Instrument(base)
		algo := &mrt.Dual{In: in}
		if _, ok := algo.Try(2 * omega); !ok {
			t.Fatal("rejected")
		}
		return calls(), algo.Stats.KnapsackCells
	}
	c12, cells12 := count(1 << 12)
	c16, cells16 := count(1 << 16)
	if float64(c16) > 8*float64(c12) {
		t.Errorf("MRT oracle calls grew ×%.1f from m=2^12 to 2^16", float64(c16)/float64(c12))
	}
	if cells16 < 8*cells12 {
		t.Errorf("MRT DP cells grew only ×%.1f (expected ~×16: linear in m)",
			float64(cells16)/float64(cells12))
	}
}

// TestFPTASOracleBudget: Theorem 2's bound, as calls ≤ C·n·log²m for the
// whole algorithm (estimator + binary search) at huge m.
func TestFPTASOracleBudget(t *testing.T) {
	n, m := 32, 1<<28
	base := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: 6})
	in, calls := moldable.Instrument(base)
	est := lt.Estimate(in)
	if _, _, err := dual.Search(context.Background(), &fptas.Dual{In: in, Eps: 0.125}, est.Omega, 2*est.Omega, 0.125); err != nil {
		t.Fatal(err)
	}
	logm := math.Log2(float64(m))
	if got, budget := float64(calls()), 40*float64(n)*logm*logm; got > budget {
		t.Errorf("FPTAS used %.0f oracle calls, budget %.0f", got, budget)
	}
}
