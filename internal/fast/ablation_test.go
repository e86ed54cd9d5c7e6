package fast

import (
	"testing"

	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/shelves"
)

// TestProfitFPTASIsNotEnough is §4.2's opening observation, executable:
// "One might be tempted to use one of the known FPTASs for the knapsack
// problem ... However, the profit of the knapsack problem can be much
// larger than the work of the schedule, such that a small decrease of
// the profit can increase the work of the schedule by a much larger
// factor."
//
// Construction: n Amdahl jobs with t(1) = d exactly and m = n. The only
// schedule with makespan d runs every job alone (zero budget slack:
// W = md − W_S exactly), and the exact knapsack selects all of them.
// ANY solution losing an ε fraction of the profit leaves ~εn jobs in
// shelf S2, where each costs 3× its shelf-1 work — the work bound of
// Lemma 6 breaks immediately. Hence the paper keeps the profit exact
// and approximates the SIZES instead (compression / Algorithm 2).
func TestProfitFPTASIsNotEnough(t *testing.T) {
	const n = 50
	d := moldable.Time(10)
	in := &moldable.Instance{M: n}
	for i := 0; i < n; i++ {
		// t(1) = 10, t(p) = 4 + 6/p: γ(d)=1 (w=10), γ(d/2)=6 (w=30)
		in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: 4, Par: 6})
	}
	part := &shelves.Partition{}
	if !shelves.Compute(part, in, d) {
		t.Fatal("partition rejected d")
	}
	if len(part.Opt) != n {
		t.Fatalf("expected all %d jobs optional big, got %d", n, len(part.Opt))
	}
	items := make([]knapsack.Item, 0, n)
	for _, j := range part.Opt {
		items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
	}
	budget := moldable.Time(in.M)*d - part.WSmall // = md, zero slack

	// Exact-profit selection: all n jobs fit capacity m = n and meet the
	// work budget exactly.
	selExact, profitExact := knapsack.SolveDense(items, in.M, nil)
	inS1 := make([]bool, n)
	for _, j := range selExact {
		inS1[j] = true
	}
	if w := part.ShelfWork(in, inS1); w > budget*(1+1e-9) {
		t.Fatalf("exact selection violates the work bound: %v > %v", w, budget)
	}

	// A (1−ε)-profit selection: drop εn jobs. Its work exceeds the
	// budget by 2·w(γ(d))·εn — an arbitrarily large violation as n grows.
	eps := 0.2
	drop := int(eps * float64(n))
	for i := 0; i < drop; i++ {
		inS1[selExact[i]] = false
	}
	profitApprox := profitExact - float64(drop)*items[0].Profit
	if profitApprox < (1-eps)*profitExact-1e-9 {
		t.Fatalf("constructed solution is worse than (1−ε)·OPT: %v vs %v", profitApprox, profitExact)
	}
	wApprox := part.ShelfWork(in, inS1)
	if wApprox <= budget*(1+1e-9) {
		t.Fatalf("(1−ε)-profit solution unexpectedly satisfies the work bound: %v ≤ %v — "+
			"the ablation construction is broken", wApprox, budget)
	}
	t.Logf("exact profit %v: work %v ≤ budget %v; (1−ε)-profit %v: work %v (violates by %.0f%%)",
		profitExact, budget, budget, profitApprox, wApprox, 100*(float64(wApprox/budget)-1))

	// And the full pipeline: Algorithm 1 (exact profit via Algorithm 2)
	// accepts d = OPT on this instance.
	algo := &Alg1{In: in, Eps: 0.3}
	if _, ok := algo.Try(d); !ok {
		t.Fatal("Algorithm 1 rejected d = OPT on the ablation instance")
	}
}

// TestCompressibleKeepsExactProfit re-checks on the ablation instance
// that Algorithm 2's selection attains the EXACT knapsack optimum (the
// property the whole of §4.2 is built on).
func TestCompressibleKeepsExactProfit(t *testing.T) {
	const n = 50
	d := moldable.Time(10)
	in := &moldable.Instance{M: n}
	for i := 0; i < n; i++ {
		in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: 4, Par: 6})
	}
	part := &shelves.Partition{}
	shelves.Compute(part, in, d)
	items := make([]knapsack.Item, 0, n)
	comp := make([]bool, 0, n)
	for _, j := range part.Opt {
		items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
		comp = append(comp, false) // all size-1: incompressible
	}
	_, exact := knapsack.SolveDense(items, in.M, nil)
	sol, err := knapsack.Solve(knapsack.Problem{
		Items: items, Compressible: comp, C: in.M, RhoFull: 0.05,
		AlphaMin: 20, BetaMax: float64(in.M), NBar: 4,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Profit < exact*(1-1e-12) {
		t.Fatalf("Algorithm 2 profit %v < exact %v", sol.Profit, exact)
	}
}
