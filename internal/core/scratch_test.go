package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestScheduleScratchZeroAlloc is the acceptance guard of the
// zero-allocation hot path (ISSUE 3 / BENCH_PR3.json): with a warm
// Scratch, single-instance scheduling at n=256, m=4096 must perform no
// heap allocation in the steady state — for the Theorem-2 FPTAS, for
// the Linear algorithm (which at m ≥ 16n runs the FPTAS dual per
// §4.2.5), and for Conv, which at m = 16n runs that same FPTAS dual.
// The convolution knapsack engine (class grid, profile staircases,
// merge tree, backtracking) has its 0-alloc guard in the budget-0 conv
// case of TestScheduleScratchLowAllocKnapsackPath (m = 512 < 16n).
func TestScheduleScratchZeroAlloc(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 42})
	// The guard deliberately runs with observability recording enabled
	// AND a trace_id-tagged context: the instrumented hot path —
	// counters, latency histograms, probe timing, and the decision-ring
	// write including the ctx trace_id lookup — must itself stay at
	// zero allocations (ISSUE 9; DESIGN.md §10).
	if !obs.On() {
		t.Fatal("obs recording must be enabled for this guard to cover the instrumented path")
	}
	ctx := obs.WithTraceID(context.Background(), "zeroalloc-guard")
	cases := []struct {
		name string
		opt  Options
	}{
		{"linear", Options{Algorithm: Linear, Eps: 0.25}},
		{"fptas", Options{Algorithm: FPTAS, Eps: 1}},
		{"conv", Options{Algorithm: Conv, Eps: 0.25}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScratch()
			run := func() {
				s, _, err := ScheduleScratchCtx(ctx, in, tc.opt, sc)
				if err != nil {
					t.Fatal(err)
				}
				if s == nil || len(s.Placements) != in.N() {
					t.Fatalf("bad schedule: %v", s)
				}
			}
			for i := 0; i < 3; i++ { // warm the buffers
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
				t.Fatalf("steady-state ScheduleScratchCtx allocates %v/op, want 0", allocs)
			}
		})
	}
}

// TestScheduleScratchLowAllocKnapsackPath bounds the steady-state
// allocation of the knapsack-regime algorithms (m < 16n, where Alg1
// and Alg3 run their pair-list DPs). Go map internals (Alg3's type
// table) may allocate sporadically after clear(), so the guard is a
// small ceiling rather than exactly zero.
func TestScheduleScratchLowAllocKnapsackPath(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 128, M: 512, Seed: 7})
	ctx := context.Background()
	cases := []struct {
		name   string
		opt    Options
		budget float64
	}{
		{"mrt", Options{Algorithm: MRT, Eps: 0.25}, 4},
		{"alg1", Options{Algorithm: Alg1, Eps: 0.25}, 4},
		{"alg3", Options{Algorithm: Alg3, Eps: 0.25}, 8},
		{"linear", Options{Algorithm: Linear, Eps: 0.25}, 8},
		// Conv has no map in its hot path: exactly zero even here.
		{"conv", Options{Algorithm: Conv, Eps: 0.25}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScratch()
			run := func() {
				if _, _, err := ScheduleScratchCtx(ctx, in, tc.opt, sc); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run()
			}
			if allocs := testing.AllocsPerRun(20, run); allocs > tc.budget {
				t.Fatalf("steady-state %s allocates %v/op, want ≤ %v", tc.name, allocs, tc.budget)
			}
		})
	}
}

// TestScheduleScratchMatchesUnpooled verifies the core reuse contract:
// scheduling through one long-lived Scratch produces placement-
// identical schedules and reports to the fresh-buffer path, across
// algorithms and repeated interleaved instances (so stale buffer
// contents would be caught).
func TestScheduleScratchMatchesUnpooled(t *testing.T) {
	ctx := context.Background()
	instances := []*moldable.Instance{
		moldable.Random(moldable.GenConfig{N: 40, M: 64, Seed: 1}),
		moldable.Random(moldable.GenConfig{N: 13, M: 200, Seed: 2}),
		moldable.Random(moldable.GenConfig{N: 64, M: 4096, Seed: 3}),
		moldable.Random(moldable.GenConfig{N: 7, M: 9, Seed: 4}),
	}
	// Conv regime-errors on the M=9 instance in both paths; the error
	// branch below covers that equivalence too.
	algos := []Algorithm{LT2, MRT, Alg1, Alg3, Linear, Conv, Auto}
	for _, algo := range algos {
		sc := NewScratch() // shared across all instances of this algorithm
		for rep := 0; rep < 2; rep++ {
			for i, in := range instances {
				opt := Options{Algorithm: algo, Eps: 0.25}
				want, wantRep, wantErr := ScheduleCtx(ctx, in, opt)
				got, gotRep, gotErr := ScheduleScratchCtx(ctx, in, opt, sc)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%v/#%d: err mismatch: %v vs %v", algo, i, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !schedulesEqual(want, got) {
					t.Fatalf("%v/#%d rep %d: pooled schedule differs from unpooled", algo, i, rep)
				}
				if wantRep.Makespan != gotRep.Makespan || wantRep.Omega != gotRep.Omega ||
					wantRep.Iterations != gotRep.Iterations || wantRep.Algorithm != gotRep.Algorithm {
					t.Fatalf("%v/#%d rep %d: report differs: %+v vs %+v", algo, i, rep, wantRep, gotRep)
				}
			}
		}
	}
}

func schedulesEqual(a, b *schedule.Schedule) bool {
	return a.M == b.M && reflect.DeepEqual(a.Placements, b.Placements)
}
