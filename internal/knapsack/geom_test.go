package knapsack

import (
	"math"
	"testing"
)

// TestGeomClosedForm: every grid element must match the closed form
// L·x^i to within the builder's span-bounded error (the old pure
// running product drifted by one ulp per step — thousands of ulps on
// long grids), the grid must be strictly increasing, start at L, and
// its last element must clear U.
func TestGeomClosedForm(t *testing.T) {
	cases := []struct{ L, U, x float64 }{
		{1, 1 << 20, 1.5},
		{24, 8192, 1.0105},        // Alg1-scale capacity grid
		{0.5, 3, 1.04},            // profit-style grid
		{40, 1 << 20, 1.025},      // conv wide-class scale
		{3, 3, 2},                 // degenerate single element
		{1e-6, 1e6, 1.0009765625}, // long grid, exact binary ratio
		{7, 1e9, 1 + 1.0/(1<<16)}, // very fine ratio
	}
	for _, tc := range cases {
		g := GeomAppend(nil, tc.L, tc.U, tc.x)
		if len(g) == 0 {
			t.Fatalf("Geom(%v,%v,%v) empty", tc.L, tc.U, tc.x)
		}
		if g[0] != tc.L {
			t.Errorf("Geom(%v,%v,%v)[0] = %v, want L", tc.L, tc.U, tc.x, g[0])
		}
		if last := g[len(g)-1]; last < tc.U {
			t.Errorf("Geom(%v,%v,%v) last = %v undershoots U", tc.L, tc.U, tc.x, last)
		}
		for i, v := range g {
			if i > 0 && v <= g[i-1] {
				t.Fatalf("Geom(%v,%v,%v) not strictly increasing at %d: %v ≤ %v",
					tc.L, tc.U, tc.x, i, v, g[i-1])
			}
			want := tc.L * math.Pow(tc.x, float64(i))
			if diff := math.Abs(v - want); diff > 48*ulp(want) {
				t.Errorf("Geom(%v,%v,%v)[%d] = %.17g, closed form %.17g (off %g ulps)",
					tc.L, tc.U, tc.x, i, v, want, diff/ulp(want))
			}
		}
	}
}

// TestGeomRoundingAgreesOnGridPoints: Geom, RoundDownIdx, RoundDown,
// and RoundUp must agree on exact grid points and on values one ulp to
// either side — the boundary classification the drifting builder got
// wrong.
func TestGeomRoundingAgreesOnGridPoints(t *testing.T) {
	grids := [][3]float64{
		{1, 4096, 1.25},
		{24, 8192, 1.0105},
		{40, 1 << 20, 1.025},
		{0.125, 977, 1.000977},
	}
	for _, p := range grids {
		g := GeomAppend(nil, p[0], p[1], p[2])
		for i, v := range g {
			if got := RoundDownIdx(g, v); got != i {
				t.Fatalf("grid %v: RoundDownIdx(g[%d]) = %d, want %d", p, i, got, i)
			}
			if got := RoundDown(g, v); got != v {
				t.Fatalf("grid %v: RoundDown(g[%d]) = %v, want %v", p, i, got, v)
			}
			if got := RoundUp(g, v); got != v {
				t.Fatalf("grid %v: RoundUp(g[%d]) = %v, want %v", p, i, got, v)
			}
			// One ulp above: still rounds down to i (and up to i+1).
			up := math.Nextafter(v, math.Inf(1))
			if up < g[len(g)-1] {
				if got := RoundDownIdx(g, up); got != i {
					t.Fatalf("grid %v: RoundDownIdx(g[%d]+ulp) = %d, want %d", p, i, got, i)
				}
			}
			// One ulp below: rounds down to i−1 (or is below the grid).
			down := math.Nextafter(v, math.Inf(-1))
			if got := RoundDownIdx(g, down); got != i-1 {
				t.Fatalf("grid %v: RoundDownIdx(g[%d]−ulp) = %d, want %d", p, i, got, i-1)
			}
			if i+1 < len(g) {
				if got := RoundUp(g, up); got != g[i+1] {
					t.Fatalf("grid %v: RoundUp(g[%d]+ulp) = %v, want g[%d] = %v", p, i, got, i+1, g[i+1])
				}
			}
		}
	}
}

// TestGeomAppendReusesBuffer: the appending form must not allocate when
// the destination capacity suffices, and must equal Geom.
func TestGeomAppendReusesBuffer(t *testing.T) {
	want := GeomAppend(nil, 24, 8192, 1.0105)
	buf := make([]float64, 0, len(want)+8)
	allocs := testing.AllocsPerRun(10, func() {
		got := GeomAppend(buf[:0], 24, 8192, 1.0105)
		if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
			t.Fatal("GeomAppend disagrees with Geom")
		}
	})
	if allocs != 0 {
		t.Errorf("GeomAppend allocated %v/op with sufficient capacity", allocs)
	}
}

// ulp returns the unit in the last place of v.
func ulp(v float64) float64 {
	return math.Nextafter(v, math.Inf(1)) - v
}
