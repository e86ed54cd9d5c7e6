package core

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
	"repro/internal/schedule"
)

// TestConvSoundnessSweep is the cross-algorithm sweep over random
// monotone instances in both Conv regimes (the convolution knapsack at
// m < 16n, the shared FPTAS dual at m ≥ 16n). Every Conv schedule is
// validated against its instance and its makespan held to the provable
// bound against Report.LowerBound: makespan ≤ (3/2+ε)·OPT and
// OPT ≤ 2·LowerBound, so makespan ≤ 2(3/2+ε)·LowerBound. Each run is
// also cross-checked against Linear on the same instance: both are
// (3/2+ε)-approximations of the same OPT, so neither may exceed
// (3/2+ε)× the other.
func TestConvSoundnessSweep(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(55, 0))
	sc := NewScratch() // shared: the sweep doubles as a reuse test
	for it := 0; it < 60; it++ {
		n := 1 + rng.IntN(64)
		m := 40 + rng.IntN(1<<12) // ≥ ConvMinM, spans both regimes
		eps := []float64{0.1, 0.25, 0.5, 1}[it%4]
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
		if err := in.ValidateCtx(ctx, 64); err != nil {
			t.Fatalf("it %d: generator produced invalid instance: %v", it, err)
		}
		s, rep, err := ScheduleScratchCtx(ctx, in, Options{Algorithm: Conv, Eps: eps}, sc)
		if err != nil {
			t.Fatalf("it %d (n=%d m=%d ε=%g): %v", it, n, m, eps, err)
		}
		if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
			t.Fatalf("it %d (n=%d m=%d ε=%g): invalid conv schedule: %v", it, n, m, eps, verr)
		}
		if rep.LowerBound <= 0 {
			t.Fatalf("it %d: non-positive lower bound %v", it, rep.LowerBound)
		}
		if bound := 2 * (1.5 + eps) * float64(rep.LowerBound); float64(rep.Makespan) > bound*(1+1e-9) {
			t.Fatalf("it %d (n=%d m=%d ε=%g): makespan %v > 2(3/2+ε)·LowerBound = %v",
				it, n, m, eps, rep.Makespan, bound)
		}
		lin, _, err := ScheduleCtx(ctx, in, Options{Algorithm: Linear, Eps: eps})
		if err != nil {
			t.Fatalf("it %d: linear failed: %v", it, err)
		}
		c := 1.5 + eps
		if float64(rep.Makespan) > c*float64(lin.Makespan())*(1+1e-9) ||
			float64(lin.Makespan()) > c*float64(rep.Makespan)*(1+1e-9) {
			t.Fatalf("it %d (n=%d m=%d ε=%g): conv %v and linear %v differ beyond factor %v",
				it, n, m, eps, rep.Makespan, lin.Makespan(), c)
		}
	}
}

// FuzzConvSoundness: arbitrary shapes and accuracies through the Conv
// path; whatever comes back must be a valid schedule within the
// provable LowerBound factor, and sub-regime machines must error, not
// crash.
func FuzzConvSoundness(f *testing.F) {
	f.Add(uint64(1), 8, 64, 0.25)
	f.Add(uint64(2), 40, 40, 0.1)
	f.Add(uint64(3), 3, 4096, 1.0)
	f.Add(uint64(4), 5, 39, 0.5) // below ConvMinM: must be a typed error
	f.Fuzz(func(t *testing.T, seed uint64, n, m int, eps float64) {
		if n < 1 || n > 48 || m < 1 || m > 1<<13 || eps <= 0 || eps > 1 {
			t.Skip()
		}
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: seed})
		s, rep, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Conv, Eps: eps})
		if err != nil {
			return // regime errors (m < 40) are the contract, not a bug
		}
		if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
			t.Fatalf("n=%d m=%d ε=%g: invalid schedule: %v", n, m, eps, verr)
		}
		if bound := 2 * (1.5 + eps) * float64(rep.LowerBound); float64(rep.Makespan) > bound*(1+1e-9) {
			t.Fatalf("n=%d m=%d ε=%g: makespan %v > 2(3/2+ε)·LowerBound = %v",
				n, m, eps, rep.Makespan, bound)
		}
	})
}
