package mrt

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/exact"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// TestDualContract: Try must accept every d ≥ OPT (planted), producing a
// valid schedule of makespan ≤ 3d/2.
func TestDualContract(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 20, D: 60, Seed: seed, MaxJobs: 15})
		algo := &Dual{In: pl.Instance}
		for _, f := range []float64{1, 1.1, 1.7, 2} {
			d := pl.OPT * f
			s, ok := algo.Try(d)
			if !ok {
				t.Fatalf("seed %d: rejected d = %.4g ≥ OPT = %v", seed, d, pl.OPT)
			}
			if err := schedule.Validate(pl.Instance, s, schedule.Options{RequireConcrete: true}); err != nil {
				t.Fatalf("seed %d f=%v: %v", seed, f, err)
			}
			if mk := s.Makespan(); mk > 1.5*d*(1+1e-9) {
				t.Fatalf("seed %d f=%v: makespan %v > 3d/2 = %v", seed, f, mk, 1.5*d)
			}
		}
	}
}

// TestApproximationOnRandom: end-to-end ratio vs the planted optimum.
func TestApproximationOnPlanted(t *testing.T) {
	for _, eps := range []float64{0.5, 0.1} {
		for _, seed := range []uint64{10, 20, 30} {
			pl := moldable.Planted(moldable.PlantedConfig{M: 32, D: 100, Seed: seed, MaxJobs: 25})
			s, _, err := Schedule(context.Background(), pl.Instance, eps, nil)
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if err := schedule.Validate(pl.Instance, s, schedule.Options{}); err != nil {
				t.Fatal(err)
			}
			if mk := s.Makespan(); mk > (1.5+eps)*pl.OPT*(1+1e-9) {
				t.Errorf("eps=%v seed=%d: ratio %.4f > 1.5+ε", eps, seed, mk/pl.OPT)
			}
		}
	}
}

// TestApproximationVsExact compares against the exact optimum on tiny
// instances of every job family.
func TestApproximationVsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	eps := 0.25
	for it := 0; it < 30; it++ {
		n, m := 2+rng.IntN(4), 2+rng.IntN(4)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64(), MaxWork: 50})
		opt, _, err := exact.Solve(in, exact.Limits{})
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		s, _, err := Schedule(context.Background(), in, eps, nil)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if mk := s.Makespan(); mk > (1.5+eps)*opt*(1+1e-9) {
			t.Errorf("it %d (n=%d m=%d): makespan %v vs OPT %v — ratio %.4f > %.4f",
				it, n, m, mk, opt, mk/opt, 1.5+eps)
		}
	}
}

func TestScheduleRejectsBadEps(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 3, M: 4, Seed: 1})
	for _, eps := range []float64{0, -0.5, 2} {
		if _, _, err := Schedule(context.Background(), in, eps, nil); err == nil {
			t.Errorf("eps=%v accepted", eps)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 16, D: 10, Seed: 1, MaxJobs: 8})
	algo := &Dual{In: pl.Instance}
	algo.Try(pl.OPT)
	algo.Try(pl.OPT * 2)
	if algo.Stats.Tries != 2 || algo.Stats.KnapsackCells == 0 {
		t.Errorf("stats not accumulated: %+v", algo.Stats)
	}
}
