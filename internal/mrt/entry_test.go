package mrt_test

// The full MRT algorithm (estimator, then the dual search at slack ε)
// runs through core.ScheduleCtx, its one entry point; these tests pin
// it end to end.

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

func run(in *moldable.Instance, eps float64) (*schedule.Schedule, *core.Report, error) {
	return core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.MRT, Eps: eps})
}

// TestApproximationOnPlanted: end-to-end ratio vs the planted optimum.
func TestApproximationOnPlanted(t *testing.T) {
	for _, eps := range []float64{0.5, 0.1} {
		for _, seed := range []uint64{10, 20, 30} {
			pl := moldable.Planted(moldable.PlantedConfig{M: 32, D: 100, Seed: seed, MaxJobs: 25})
			s, _, err := run(pl.Instance, eps)
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
		s, _, err := run(in, eps)
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
	for _, eps := range []float64{-0.5, 2} {
		if _, _, err := run(in, eps); !errors.Is(err, scherr.ErrBadEps) {
			t.Errorf("eps=%v: err = %v, want ErrBadEps", eps, err)
		}
	}
}
