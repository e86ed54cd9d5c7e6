package knapsack

import (
	"fmt"
	"math/rand/v2"
	"testing"
)

func benchItems(n, maxSize int, seed uint64) ([]Item, []bool) {
	rng := rand.New(rand.NewPCG(seed, 0))
	items := make([]Item, n)
	comp := make([]bool, n)
	for i := range items {
		items[i] = Item{ID: i, Size: 1 + rng.IntN(maxSize), Profit: rng.Float64() * 100}
		comp[i] = items[i].Size >= maxSize/4
	}
	return items, comp
}

func BenchmarkDenseDP(b *testing.B) {
	for _, c := range []int{1 << 10, 1 << 14} {
		items, _ := benchItems(256, c/4, 1)
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SolveDense(items, c, nil)
			}
		})
	}
}

func BenchmarkPairList(b *testing.B) {
	for _, c := range []int{1 << 10, 1 << 14, 1 << 18} {
		items, _ := benchItems(256, 64, 2) // few distinct sizes: pair lists shine
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SolvePairs(items, c)
			}
		})
	}
}

func BenchmarkCompressible(b *testing.B) {
	for _, c := range []int{1 << 10, 1 << 14, 1 << 18} {
		items, comp := benchItems(256, c/4, 3)
		thr := c / 16
		for i := range comp {
			comp[i] = items[i].Size >= thr
		}
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := Solve(Problem{
					Items: items, Compressible: comp, C: c, RhoFull: 0.1,
					AlphaMin: float64(thr), BetaMax: float64(c), NBar: 64,
				}, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGridNorm(b *testing.B) {
	rho := 0.1
	A := GeomAppend(nil, 10, 1e6, 1/(1-rho))
	g := NewGrid(A, 10, rho, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Norm(float64(10 + i%999990))
	}
}
