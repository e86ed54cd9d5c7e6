package lt

import (
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
)

// fullGrid is the identity candidate set [1..m].
func fullGrid(m int) []int {
	g := make([]int, m)
	for i := range g {
		g[i] = i + 1
	}
	return g
}

// convLikeGrid mirrors the Conv algorithm's candidate grid: dense
// below 40, integer-geometric steps ⌈g/40⌉ above, ending at m. Its
// round-up overshoot is bounded by κ = 21/20.
func convLikeGrid(m int) []int {
	var c []int
	for p := 1; p < 40 && p <= m; p++ {
		c = append(c, p)
	}
	if m >= 40 {
		for g := 40; g < m; g += (g + 39) / 40 {
			c = append(c, g)
		}
		c = append(c, m)
	}
	return c
}

// TestEstimateGridIdentity: with cands = [1..m] the restricted
// estimator must reproduce EstimateScratch exactly — same ω, same
// threshold, same allotment.
func TestEstimateGridIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	for it := 0; it < 40; it++ {
		n, m := 1+rng.IntN(24), 1+rng.IntN(256)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
		want := Estimate(in)
		got := EstimateGrid(in, fullGrid(m), nil)
		if want.Omega != got.Omega || want.VStar != got.VStar {
			t.Fatalf("it %d (n=%d m=%d): identity grid ω=%v v̂=%v, full search ω=%v v̂=%v",
				it, n, m, got.Omega, got.VStar, want.Omega, want.VStar)
		}
		for i := range want.Allot {
			if want.Allot[i] != got.Allot[i] {
				t.Fatalf("it %d: allotment %d differs: %d vs %d", it, i, got.Allot[i], want.Allot[i])
			}
		}
	}
}

// TestEstimateGridBracketsOPT pins the restricted estimator's whole
// point: on planted instances (exact OPT known) with the conv-like
// grid, ω_S/κ ≤ OPT ≤ 2ω_S for κ = 21/20.
func TestEstimateGridBracketsOPT(t *testing.T) {
	const kappa = 21.0 / 20
	for seed := uint64(0); seed < 30; seed++ {
		m := 64 << (seed % 7) // 64 … 4096
		pl := moldable.Planted(moldable.PlantedConfig{M: m, D: 100, Seed: seed, MaxJobs: 1 + int(seed)%30})
		res := EstimateGrid(pl.Instance, convLikeGrid(m), nil)
		if float64(res.Omega)/kappa > float64(pl.OPT)*(1+1e-9) {
			t.Fatalf("seed %d m=%d: ω_S/κ = %v > OPT = %v", seed, m, res.Omega/kappa, pl.OPT)
		}
		if 2*res.Omega < pl.OPT*(1-1e-9) {
			t.Fatalf("seed %d m=%d: 2ω_S = %v < OPT = %v", seed, m, 2*res.Omega, pl.OPT)
		}
	}
}

// TestEstimateGridVsFull: on random instances the two estimates must
// stay within the provable mutual factor — ω ≤ OPT ≤ 2ω and
// ω_S ≤ κ·OPT ≤ 2κ·ω_S give ω_S ∈ [ω/2, 2κ·ω].
func TestEstimateGridVsFull(t *testing.T) {
	const kappa = 21.0 / 20
	rng := rand.New(rand.NewPCG(33, 0))
	for it := 0; it < 40; it++ {
		n, m := 1+rng.IntN(48), 40+rng.IntN(1<<13)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
		full := Estimate(in)
		grid := EstimateGrid(in, convLikeGrid(m), nil)
		if float64(grid.Omega) < float64(full.Omega)/2*(1-1e-9) {
			t.Fatalf("it %d (n=%d m=%d): ω_S = %v < ω/2 = %v", it, n, m, grid.Omega, full.Omega/2)
		}
		if float64(grid.Omega) > 2*kappa*float64(full.Omega)*(1+1e-9) {
			t.Fatalf("it %d (n=%d m=%d): ω_S = %v > 2κω = %v", it, n, m, grid.Omega, 2*kappa*full.Omega)
		}
	}
}

// TestEstimateGridZeroAlloc: a warm scratch must make the restricted
// estimation allocation-free — it sits on the Conv hot path.
func TestEstimateGridZeroAlloc(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 1 << 16, Seed: 9})
	cands := convLikeGrid(1 << 16)
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		EstimateGrid(in, cands, sc)
	}
	if allocs := testing.AllocsPerRun(20, func() { EstimateGrid(in, cands, sc) }); allocs != 0 {
		t.Fatalf("steady-state EstimateGrid allocates %v/op, want 0", allocs)
	}
}

// TestEstimateScratchZeroAlloc: the identity-space entry point runs
// the same search and must be allocation-free with a warm scratch too.
func TestEstimateScratchZeroAlloc(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 128, M: 1 << 30, Seed: 1})
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		EstimateScratch(in, sc)
	}
	if allocs := testing.AllocsPerRun(20, func() { EstimateScratch(in, sc) }); allocs != 0 {
		t.Fatalf("steady-state EstimateScratch allocates %v/op, want 0", allocs)
	}
}
