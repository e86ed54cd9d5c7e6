package knapsack

import (
	"math"
	"math/rand/v2"
	"testing"
)

// randomConvProblem builds a random compressible-knapsack instance in
// the shape Alg1 produces: integer sizes, items at or above the
// threshold compressible, AlphaMin = threshold.
func randomConvProblem(rng *rand.Rand, maxItems, maxC int, rhoFull float64) Problem {
	thr := int(1/rhoFull) + 1
	n := 1 + rng.IntN(maxItems)
	C := 1 + rng.IntN(maxC)
	items := make([]Item, n)
	comp := make([]bool, n)
	for i := range items {
		var size int
		if rng.IntN(2) == 0 {
			size = 1 + rng.IntN(thr) // narrow
		} else {
			size = thr + rng.IntN(3*thr) // wide
		}
		items[i] = Item{ID: i, Size: size, Profit: float64(rng.IntN(50))}
		comp[i] = size >= thr
	}
	return Problem{
		Items: items, Compressible: comp, C: C, RhoFull: rhoFull,
		AlphaMin: float64(thr), BetaMax: float64(C),
		NBar: int(rhoFull*float64(C)) + 2,
	}
}

// checkSolution re-derives the reported profit and compressed size
// from the selection and verifies the Theorem-15 contract against the
// exact uncompressed optimum.
func checkSolution(t *testing.T, p Problem, sol Solution, opt float64, tag string) {
	t.Helper()
	var profit, size float64
	seen := map[int]bool{}
	for _, id := range sol.Selected {
		if seen[id] {
			t.Fatalf("%s: item %d selected twice", tag, id)
		}
		seen[id] = true
		it := p.Items[id] // IDs are indices in these tests
		profit += it.Profit
		if p.Compressible[id] {
			size += (1 - p.RhoFull) * float64(it.Size)
		} else {
			size += float64(it.Size)
		}
	}
	if math.Abs(profit-sol.Profit) > 1e-6*(1+profit) {
		t.Fatalf("%s: reported profit %v, selection sums to %v", tag, sol.Profit, profit)
	}
	if math.Abs(size-sol.SizeCompressed) > 1e-6*(1+size) {
		t.Fatalf("%s: reported compressed size %v, selection sums to %v", tag, sol.SizeCompressed, size)
	}
	if size > float64(p.C)*(1+1e-9) {
		t.Fatalf("%s: compressed size %v exceeds capacity %d", tag, size, p.C)
	}
	if sol.Profit < opt-1e-6*(1+opt) {
		t.Fatalf("%s: profit %v below uncompressed optimum %v", tag, sol.Profit, opt)
	}
}

// TestSolveConvContract: on random instances, SolveConv must match the
// contract of Solve (Theorem 15) — profit at least the exact
// uncompressed optimum (from SolveDense), selection fitting C after
// compression, and internally consistent reporting.
func TestSolveConvContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(71, 0))
	for it := 0; it < 400; it++ {
		rhoFull := []float64{0.25, 0.1, 1.0 / 24}[it%3]
		p := randomConvProblem(rng, 24, 400, rhoFull)
		_, opt := SolveDense(p.Items, p.C, nil)
		sol, err := SolveConv(p, nil)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		checkSolution(t, p, sol, opt, "conv")
		// The incumbent must satisfy the same contract on the same
		// instance — a cross-check that the two engines implement one
		// guarantee.
		sol2, err := Solve(p, nil)
		if err != nil {
			t.Fatalf("it %d: Solve: %v", it, err)
		}
		checkSolution(t, p, sol2, opt, "algorithm2")
	}
}

// TestSolveConvDegenerate covers the boundary shapes: no items, only
// narrow, only wide, zero profits, capacity too small for any wide
// item.
func TestSolveConvDegenerate(t *testing.T) {
	rho := 0.25
	thr := 5
	cases := []struct {
		name  string
		items []Item
		comp  []bool
		c     int
	}{
		{"empty", nil, nil, 10},
		{"only-narrow", []Item{{0, 2, 3}, {1, 3, 4}}, []bool{false, false}, 4},
		{"only-wide", []Item{{0, 6, 3}, {1, 8, 9}, {2, 5, 1}}, []bool{true, true, true}, 13},
		{"zero-profit", []Item{{0, 6, 0}, {1, 3, 0}}, []bool{true, false}, 10},
		{"wide-too-big", []Item{{0, 50, 10}, {1, 2, 1}}, []bool{true, false}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := Problem{Items: tc.items, Compressible: tc.comp, C: tc.c,
				RhoFull: rho, AlphaMin: float64(thr)}
			_, opt := SolveDense(tc.items, tc.c, nil)
			sol, err := SolveConv(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkSolution(t, p, sol, opt, tc.name)
		})
	}
}

// TestSolveConvScratchZeroAlloc: with a warm scratch the entire solve
// — class grid, profile staircases, merges, combine, backtracking —
// must not allocate. This is the property core.TestScheduleScratchZero-
// Alloc relies on for the Conv algorithm's knapsack regime.
func TestSolveConvScratchZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewPCG(72, 0))
	p := randomConvProblem(rng, 64, 800, 1.0/24)
	sc := &Scratch{}
	want, err := SolveConv(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		sol, err := SolveConv(p, sc)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Profit != want.Profit {
			t.Fatalf("pooled profit %v != fresh %v", sol.Profit, want.Profit)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state SolveConv allocates %v/op, want 0", allocs)
	}
}

// TestSolveConvScratchReuse: interleaving differently-shaped problems
// through one scratch must give the same results as fresh solves
// (stale arena state would surface here).
func TestSolveConvScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(73, 0))
	sc := &Scratch{}
	probs := make([]Problem, 12)
	for i := range probs {
		probs[i] = randomConvProblem(rng, 1+i*4, 50+i*60, []float64{0.25, 0.1}[i%2])
	}
	for rep := 0; rep < 3; rep++ {
		for i, p := range probs {
			fresh, err1 := SolveConv(p, nil)
			pooled, err2 := SolveConv(p, sc)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("#%d: err mismatch %v vs %v", i, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if fresh.Profit != pooled.Profit || fresh.SizeCompressed != pooled.SizeCompressed {
				t.Fatalf("#%d rep %d: pooled (%v, %v) != fresh (%v, %v)", i, rep,
					pooled.Profit, pooled.SizeCompressed, fresh.Profit, fresh.SizeCompressed)
			}
		}
	}
}

// FuzzSolveConvVsDense: on arbitrary tiny instances, SolveConv's
// profit must reach the dense exact optimum and its compressed
// selection must fit.
func FuzzSolveConvVsDense(f *testing.F) {
	f.Add(uint64(1), 10, 8)
	f.Add(uint64(42), 100, 3)
	f.Add(uint64(7), 30, 12)
	f.Fuzz(func(t *testing.T, seed uint64, cRaw, nRaw int) {
		if cRaw < 1 || cRaw > 500 || nRaw < 1 || nRaw > 16 {
			t.Skip()
		}
		rng := rand.New(rand.NewPCG(seed, 1))
		p := randomConvProblem(rng, nRaw, cRaw, 0.2)
		_, opt := SolveDense(p.Items, p.C, nil)
		sol, err := SolveConv(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, p, sol, opt, "fuzz")
	})
}
