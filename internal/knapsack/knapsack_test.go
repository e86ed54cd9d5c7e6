package knapsack

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// bruteForce enumerates all subsets (≤ 20 items) for the exact optimum.
func bruteForce(items []Item, C int) float64 {
	best := 0.0
	n := len(items)
	for mask := 0; mask < 1<<n; mask++ {
		size, profit := 0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				profit += items[i].Profit
			}
		}
		if size <= C && profit > best {
			best = profit
		}
	}
	return best
}

func randomItems(rng *rand.Rand, n, maxSize int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: i, Size: 1 + rng.IntN(maxSize), Profit: rng.Float64() * 100}
	}
	return items
}

func verifySelection(t *testing.T, items []Item, sel []int, C int, profit float64) {
	t.Helper()
	byID := map[int]Item{}
	for _, it := range items {
		byID[it.ID] = it
	}
	size, p := 0, 0.0
	seen := map[int]bool{}
	for _, id := range sel {
		if seen[id] {
			t.Fatalf("item %d selected twice", id)
		}
		seen[id] = true
		size += byID[id].Size
		p += byID[id].Profit
	}
	if size > C {
		t.Fatalf("selection size %d > capacity %d", size, C)
	}
	if math.Abs(p-profit) > 1e-6*(1+profit) {
		t.Fatalf("reported profit %v but selection sums to %v", profit, p)
	}
}

func TestSolveDenseMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for it := 0; it < 300; it++ {
		n := 1 + rng.IntN(12)
		C := rng.IntN(40)
		items := randomItems(rng, n, 15)
		sel, profit := SolveDense(items, C, nil)
		verifySelection(t, items, sel, C, profit)
		if want := bruteForce(items, C); math.Abs(profit-want) > 1e-9*(1+want) {
			t.Fatalf("dense %v, brute %v (n=%d C=%d)", profit, want, n, C)
		}
	}
}

func TestSolvePairsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	for it := 0; it < 300; it++ {
		n := 1 + rng.IntN(18)
		C := rng.IntN(60)
		items := randomItems(rng, n, 20)
		selP, profitP := SolvePairs(items, C)
		verifySelection(t, items, selP, C, profitP)
		_, profitD := SolveDense(items, C, nil)
		if math.Abs(profitP-profitD) > 1e-9*(1+profitD) {
			t.Fatalf("pairs %v, dense %v", profitP, profitD)
		}
	}
}

// TestPairListAllCapacities: one pass must answer every capacity query
// exactly (§4.2.4).
func TestPairListAllCapacities(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for it := 0; it < 50; it++ {
		n := 1 + rng.IntN(10)
		maxC := 30
		items := randomItems(rng, n, 10)
		l := NewPairList()
		for idx, item := range items {
			l.Add(idx, float64(item.Size), item.Profit, float64(maxC), nil)
		}
		for c := 0; c <= maxC; c++ {
			got, _ := l.Best(float64(c))
			want := bruteForce(items, c)
			if math.Abs(got-want) > 1e-9*(1+want) {
				t.Fatalf("capacity %d: one-pass %v, brute %v", c, got, want)
			}
		}
	}
}

func TestPairListDominance(t *testing.T) {
	l := NewPairList()
	l.Add(0, 5, 10, 100, nil)
	l.Add(1, 5, 3, 100, nil) // dominated by item 0 alone
	p, node := l.Best(5)
	if p != 10 {
		t.Fatalf("Best(5) = %v, want 10", p)
	}
	sel := l.BacktrackAppend(nil, node)
	if len(sel) != 1 || sel[0] != 0 {
		t.Fatalf("Backtrack = %v, want [0]", sel)
	}
	// frontier must never hold dominated pairs
	if l.Len() > 3 { // (0,0), (5,10), (10,13)
		t.Errorf("frontier length %d, expected ≤ 3", l.Len())
	}
}

func TestGeomCovering(t *testing.T) {
	f := func(lRaw, uRaw uint16, xRaw uint8) bool {
		L := 1 + float64(lRaw)
		U := L + float64(uRaw)
		x := 1.01 + float64(xRaw%100)/100
		g := GeomAppend(nil, L, U, x)
		if len(g) == 0 || g[0] != L || g[len(g)-1] < U {
			return false
		}
		// consecutive ratio exactly x, and every a ∈ [L,U] is covered:
		// ∃ g_i with a ≤ g_i ≤ a·x
		for i := 1; i < len(g); i++ {
			if math.Abs(g[i]/g[i-1]-x) > 1e-9 {
				return false
			}
		}
		for k := 0; k < 20; k++ {
			a := L + (U-L)*float64(k)/19
			up := RoundUp(g, a)
			if math.IsNaN(up) || up < a || up > a*x*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGeomSizeLemma14(t *testing.T) {
	// |geom(L,U,x)| = O(log(U/L)/(x−1)) for 1 < x < 2
	for _, x := range []float64{1.01, 1.1, 1.5} {
		g := GeomAppend(nil, 1, 1e6, x)
		bound := 3 * (math.Log(1e6)/(x-1) + 2)
		if float64(len(g)) > bound {
			t.Errorf("x=%v: |geom| = %d exceeds O(log(U/L)/(x−1)) ≈ %v", x, len(g), bound)
		}
	}
}

func TestRounding(t *testing.T) {
	g := []float64{1, 2, 4, 8}
	if RoundDown(g, 5) != 4 || RoundDown(g, 8) != 8 || RoundDown(g, 1) != 1 {
		t.Error("RoundDown wrong")
	}
	if !math.IsNaN(RoundDown(g, 0.5)) {
		t.Error("RoundDown below grid must be NaN")
	}
	if RoundUp(g, 5) != 8 || RoundUp(g, 2) != 2 {
		t.Error("RoundUp wrong")
	}
	if !math.IsNaN(RoundUp(g, 9)) {
		t.Error("RoundUp above grid must be NaN")
	}
	if RoundDownIdx(nil, 1) != -1 {
		t.Error("empty grid must return -1")
	}
}

func TestGridPointsBound(t *testing.T) {
	// Lemma 12 / Eq. (16): O(n̄) subintervals per capacity step.
	rho := 0.1
	A := GeomAppend(nil, 10, 1000, 1/(1-rho))
	for _, nbar := range []int{1, 4, 16} {
		g := NewGrid(A, 10, rho, nbar)
		bound := (len(A) + 1) * (nbar + 3)
		if g.NumPoints() > bound {
			t.Errorf("nbar=%d: %d grid points > bound %d", nbar, g.NumPoints(), bound)
		}
	}
}

func TestGridNormProperties(t *testing.T) {
	rho := 0.15
	A := GeomAppend(nil, 5, 500, 1/(1-rho))
	g := NewGrid(A, 5, rho, 8)
	rng := rand.New(rand.NewPCG(4, 0))
	prev := 0.0
	prevN := 0.0
	for it := 0; it < 2000; it++ {
		s := 5 + rng.Float64()*495
		ns := g.Norm(s)
		if ns > s {
			t.Fatalf("Norm(%v) = %v rounds up", s, ns)
		}
		// underestimation within one subinterval width of the containing
		// capacity interval: U_i ≤ ρ/(1−ρ)/n̄ · α_k overall
		if s-ns > rho/(1-rho)/1*500+1e-9 {
			t.Fatalf("Norm(%v) = %v underestimates too much", s, ns)
		}
		_ = prev
		_ = prevN
	}
	// monotonicity
	xs := []float64{5, 6, 7, 20, 100, 499}
	for i := 1; i < len(xs); i++ {
		if g.Norm(xs[i]) < g.Norm(xs[i-1]) {
			t.Fatal("Norm is not monotone")
		}
	}
}

// TestSolveCompressible: the central guarantee of Theorem 15 — profit at
// least the UNCOMPRESSED optimum while the compressed size fits C.
func TestSolveCompressible(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	for it := 0; it < 300; it++ {
		rhoFull := 0.05 + 0.3*rng.Float64()
		threshold := int(math.Ceil(1 / rhoFull))
		C := 20 + rng.IntN(200)
		n := 1 + rng.IntN(12)
		items := make([]Item, n)
		comp := make([]bool, n)
		for i := range items {
			if rng.IntN(2) == 0 {
				items[i] = Item{ID: i, Size: threshold + rng.IntN(C), Profit: rng.Float64() * 100}
				comp[i] = true
			} else {
				items[i] = Item{ID: i, Size: 1 + rng.IntN(threshold), Profit: rng.Float64() * 100}
			}
		}
		var incompTotal float64
		minComp := math.Inf(1)
		for i := range items {
			if comp[i] {
				minComp = math.Min(minComp, float64(items[i].Size))
			} else {
				incompTotal += float64(items[i].Size)
			}
		}
		alphaMin := float64(threshold)
		if !math.IsInf(minComp, 1) && minComp > alphaMin {
			alphaMin = minComp
		}
		betaMax := math.Min(float64(C), incompTotal)
		sol, err := Solve(Problem{
			Items: items, Compressible: comp, C: C, RhoFull: rhoFull,
			AlphaMin: alphaMin, BetaMax: betaMax,
			NBar: int(float64(C)/alphaMin) + 1,
		}, nil)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		want := bruteForce(items, C)
		if sol.Profit < want*(1-1e-9) {
			t.Fatalf("it %d: profit %v < uncompressed OPT %v (rho=%v C=%d items=%v comp=%v)",
				it, sol.Profit, want, rhoFull, C, items, comp)
		}
		// compressed feasibility
		var size float64
		for _, id := range sol.Selected {
			if comp[id] {
				size += (1 - rhoFull) * float64(items[id].Size)
			} else {
				size += float64(items[id].Size)
			}
		}
		if size > float64(C)*(1+1e-9) {
			t.Fatalf("it %d: compressed size %v > C=%d", it, size, C)
		}
	}
}

func TestSolveCompressibleProfitMatchesSelection(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 0))
	for it := 0; it < 100; it++ {
		C := 30 + rng.IntN(100)
		items := randomItems(rng, 8, C)
		comp := make([]bool, len(items))
		rhoFull := 0.2
		for i := range comp {
			comp[i] = items[i].Size >= 5
		}
		sol, err := Solve(Problem{Items: items, Compressible: comp, C: C,
			RhoFull: rhoFull, AlphaMin: 5, BetaMax: float64(C), NBar: C/5 + 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var p float64
		for _, id := range sol.Selected {
			p += items[id].Profit
		}
		if math.Abs(p-sol.Profit) > 1e-6*(1+p) {
			t.Fatalf("reported profit %v, selection sums to %v", sol.Profit, p)
		}
	}
}

func TestContainersExpansion(t *testing.T) {
	types := []Type{
		{Size: 3, Profit: 2, Count: 13, Compressible: true},
		{Size: 1, Profit: 1, Count: 1},
		{Size: 100, Profit: 50, Count: 5},
	}
	items, meta, comp := ContainersAppend(nil, nil, nil, types, 50)
	// type 0: multiplicities 1,2,4,6 (13 = 1+2+4+6)
	var mults []int
	total := 0
	for i, it := range items {
		if meta[i].Type == 0 {
			mults = append(mults, meta[i].Mult)
			total += meta[i].Mult
			if it.Size != meta[i].Mult*3 || it.Profit != float64(meta[i].Mult)*2 {
				t.Errorf("container %d wrong size/profit", i)
			}
			if !comp[i] {
				t.Error("compressibility flag lost")
			}
		}
		if meta[i].Type == 2 {
			t.Error("oversized type expanded")
		}
	}
	if total != 13 {
		t.Errorf("type 0 multiplicities %v sum to %d, want 13", mults, total)
	}
}

// Every count 0..Count must be expressible as a subset of multiplicities.
func TestContainersExpressEveryCount(t *testing.T) {
	for count := 1; count <= 40; count++ {
		items, meta, _ := ContainersAppend(nil, nil, nil, []Type{{Size: 1, Profit: 1, Count: count}}, count)
		reach := map[int]bool{0: true}
		for range items {
		}
		for i := range items {
			next := map[int]bool{}
			for v := range reach {
				next[v] = true
				next[v+meta[i].Mult] = true
			}
			reach = next
		}
		for k := 0; k <= count; k++ {
			if !reach[k] {
				t.Fatalf("count=%d: %d not expressible", count, k)
			}
		}
	}
}

// TestSolveBoundedMatchesBrute compares against brute force over counts.
func TestSolveBoundedMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	for it := 0; it < 100; it++ {
		k := 1 + rng.IntN(4)
		types := make([]Type, k)
		for i := range types {
			types[i] = Type{Size: 1 + rng.IntN(6), Profit: rng.Float64() * 10, Count: 1 + rng.IntN(5)}
		}
		C := 5 + rng.IntN(25)
		sol, err := SolveBounded(types, C, 0.2, 0, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		// brute force over count vectors
		best := 0.0
		var rec func(i, size int, profit float64)
		rec = func(i, size int, profit float64) {
			if size > C {
				return
			}
			if profit > best {
				best = profit
			}
			if i == k {
				return
			}
			for c := 0; c <= types[i].Count; c++ {
				rec(i+1, size+c*types[i].Size, profit+float64(c)*types[i].Profit)
			}
		}
		rec(0, 0, 0)
		if sol.Profit < best*(1-1e-9) {
			t.Fatalf("bounded profit %v < brute %v (types=%v C=%d)", sol.Profit, best, types, C)
		}
		for ti, c := range sol.CountByType {
			if c > types[ti].Count {
				t.Fatalf("type %d: selected %d > count %d", ti, c, types[ti].Count)
			}
		}
	}
}

func TestSolveRejectsBadRho(t *testing.T) {
	_, err := Solve(Problem{Items: []Item{{ID: 0, Size: 1, Profit: 1}},
		Compressible: []bool{false}, C: 5, RhoFull: 0}, nil)
	if err == nil {
		t.Error("rho=0 accepted")
	}
}

// TestLemma11Separation: OPT(I, C) ≤ OPT(I₁, α) + OPT(I₂, β) for any
// partition I = I₁ ∪ I₂ and any α ≥ space used by I₁'s part of an
// optimal solution (similarly β); with α+β = C, equality holds for the
// right split — the separation lemma behind Algorithm 2.
func TestLemma11Separation(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 0))
	for it := 0; it < 200; it++ {
		n := 2 + rng.IntN(8)
		C := 5 + rng.IntN(30)
		items := randomItems(rng, n, 10)
		cut := 1 + rng.IntN(n-1)
		i1, i2 := items[:cut], items[cut:]
		whole := bruteForce(items, C)
		// equality must hold for SOME split α+β=C …
		bestSplit := 0.0
		for alpha := 0; alpha <= C; alpha++ {
			v := bruteForce(i1, alpha) + bruteForce(i2, C-alpha)
			if v > bestSplit {
				bestSplit = v
			}
			// … and every split is an upper bound on selections confined
			// to (α, C−α); the max over splits equals the whole optimum.
		}
		if math.Abs(bestSplit-whole) > 1e-9*(1+whole) {
			t.Fatalf("it %d: max over splits %v ≠ OPT %v", it, bestSplit, whole)
		}
	}
}
