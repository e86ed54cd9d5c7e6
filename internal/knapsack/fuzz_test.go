package knapsack

import (
	"math"
	"testing"
)

// FuzzPairListVsDense: the two exact solvers must agree on any instance.
func FuzzPairListVsDense(f *testing.F) {
	f.Add(3, 7, 2, 11, 5, 3, uint8(20))
	f.Add(1, 1, 1, 1, 1, 1, uint8(2))
	f.Add(10, 100, 20, 5, 1, 50, uint8(60))
	f.Fuzz(func(t *testing.T, s1, s2, s3 int, p1, p2, p3 int, cRaw uint8) {
		C := int(cRaw)
		items := []Item{}
		for i, sp := range [][2]int{{s1, p1}, {s2, p2}, {s3, p3}} {
			if sp[0] < 1 || sp[0] > 1000 || sp[1] < 0 || sp[1] > 1000 {
				t.Skip()
			}
			items = append(items, Item{ID: i, Size: sp[0], Profit: float64(sp[1])})
		}
		_, pd := SolveDense(items, C, nil)
		_, pp := SolvePairs(items, C)
		if math.Abs(pd-pp) > 1e-9*(1+pd) {
			t.Fatalf("dense %v != pairs %v (items %v, C=%d)", pd, pp, items, C)
		}
	})
}

// FuzzGeomRounding: gˇr/gˆr bracket their argument on any valid grid.
func FuzzGeomRounding(f *testing.F) {
	f.Add(1.0, 100.0, 1.5, 37.0)
	f.Add(0.5, 0.5, 1.01, 0.5)
	f.Fuzz(func(t *testing.T, L, U, x, a float64) {
		if !(L > 0) || U < L || U > 1e12 || x <= 1.0001 || x > 4 || a < L || a > U {
			t.Skip()
		}
		g := GeomAppend(nil, L, U, x)
		down := RoundDown(g, a)
		up := RoundUp(g, a)
		if math.IsNaN(down) || down > a || down*x < a/(1+1e-9) {
			t.Fatalf("RoundDown(%v) = %v out of (a/x, a]", a, down)
		}
		if math.IsNaN(up) || up < a || up > a*x*(1+1e-9) {
			t.Fatalf("RoundUp(%v) = %v out of [a, a·x]", a, up)
		}
	})
}
