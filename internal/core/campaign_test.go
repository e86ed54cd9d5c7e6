package core

import (
	"context"
	"testing"

	"repro/internal/moldable"
	"repro/internal/schedule"
)

// TestCrossAlgorithmConsistency is a mutual-consistency campaign across
// workload presets: for each instance, every algorithm's makespan must
// lie within its own guarantee of the best makespan any algorithm found
// (best ≥ OPT, so this is implied by correctness — violating it proves
// a bug in one of the algorithms or the validator).
func TestCrossAlgorithmConsistency(t *testing.T) {
	eps := 0.25
	algos := []Algorithm{LT2, MRT, Alg1, Alg3, Linear}
	for _, preset := range moldable.PresetNames() {
		for _, seed := range []uint64{1, 2} {
			cfg, err := moldable.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg.N, cfg.M, cfg.Seed = 24, 48, seed
			in := moldable.Random(cfg)
			makespans := map[Algorithm]moldable.Time{}
			guarantees := map[Algorithm]float64{}
			best := moldable.Time(0)
			for i, a := range algos {
				s, rep, err := ScheduleCtx(context.Background(), in, Options{Algorithm: a, Eps: eps, Validate: true})
				if err != nil {
					t.Fatalf("%s seed %d %v: %v", preset, seed, a, err)
				}
				if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
					t.Fatalf("%s seed %d %v: %v", preset, seed, a, verr)
				}
				makespans[a] = s.Makespan()
				guarantees[a] = rep.Guarantee
				if i == 0 || s.Makespan() < best {
					best = s.Makespan()
				}
			}
			for _, a := range algos {
				if makespans[a] > guarantees[a]*best*(1+1e-9) {
					t.Errorf("%s seed %d: %v makespan %.4g > guarantee(%.3g) × best(%.4g)",
						preset, seed, a, makespans[a], guarantees[a], best)
				}
			}
		}
	}
}

// TestEpsMonotonicity: smaller ε must never produce a guarantee-worse
// result on the same instance (measured makespans may fluctuate within
// the bound, but never above (3/2+ε)·the best makespan seen).
func TestEpsMonotonicity(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 30, M: 64, Seed: 17})
	var best moldable.Time
	for i, eps := range []float64{1, 0.5, 0.25, 0.1, 0.05} {
		s, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Linear, Eps: eps})
		if err != nil {
			t.Fatal(err)
		}
		mk := s.Makespan()
		if i == 0 || mk < best {
			best = mk
		}
		if mk > (1.5+eps)*2*in.LowerBound()*(1+1e-9) {
			t.Fatalf("eps=%v: makespan %v above the outer bound", eps, mk)
		}
	}
	// the tightest ε should land within its guarantee of the best seen
	s, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Linear, Eps: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() > (1.5+0.05)*best/1.5*(1+1e-9)*1.5 {
		t.Errorf("eps=0.05 makespan %v far above best %v", s.Makespan(), best)
	}
}
