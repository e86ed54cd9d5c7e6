package fast

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/dual"
	"repro/internal/exact"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// search is the pipeline internal/core runs around one dual: the
// Ludwig–Tiwari estimate ω, then the dual search over [ω, 2ω] at the
// given slack — ε/2 for a fast dual built at ε/2 (core's choice for
// m < 16n), ε for MRT.
func search(in *moldable.Instance, algo dual.Algorithm, slack float64) (*schedule.Schedule, dual.Report, error) {
	est := lt.Estimate(in)
	return dual.Search(context.Background(), algo, est.Omega, 2*est.Omega, slack)
}

// duals returns the three improved dual algorithms for an instance.
func duals(in *moldable.Instance, eps float64) map[string]dual.Algorithm {
	return map[string]dual.Algorithm{
		"alg1":   &Alg1{In: in, Eps: eps},
		"alg3":   &Alg3{In: in, Eps: eps},
		"linear": &Alg3{In: in, Eps: eps, Buckets: true},
	}
}

// TestDualContracts: every improved dual must accept all d ≥ OPT with a
// valid schedule of makespan ≤ Guarantee()·d. This is the load-bearing
// property behind Theorem 3.
func TestDualContracts(t *testing.T) {
	for _, eps := range []float64{1, 0.5, 0.2} {
		for _, seed := range []uint64{1, 2, 3, 4, 5} {
			pl := moldable.Planted(moldable.PlantedConfig{M: 24, D: 80, Seed: seed, MaxJobs: 16})
			for name, algo := range duals(pl.Instance, eps) {
				for _, f := range []float64{1, 1.25, 2} {
					d := pl.OPT * f
					s, ok := algo.Try(d)
					if !ok {
						t.Fatalf("%s eps=%v seed=%d: rejected d = %.4g ≥ OPT", name, eps, seed, d)
					}
					if err := schedule.Validate(pl.Instance, s, schedule.Options{RequireConcrete: true}); err != nil {
						t.Fatalf("%s eps=%v seed=%d: %v", name, eps, seed, err)
					}
					if mk := s.Makespan(); mk > algo.Guarantee()*d*(1+1e-9) {
						t.Fatalf("%s eps=%v seed=%d: makespan %v > c·d = %v",
							name, eps, seed, mk, algo.Guarantee()*d)
					}
				}
			}
		}
	}
}

// TestGuaranteesWithinTheorem3: the dual factors must stay within 3/2+ε.
func TestGuaranteesWithinTheorem3(t *testing.T) {
	in := &moldable.Instance{M: 2, Jobs: []moldable.Job{moldable.Sequential{T: 1}}}
	for _, eps := range []float64{1, 0.5, 0.25, 0.1, 0.01} {
		for name, algo := range duals(in, eps) {
			if g := algo.Guarantee(); g > 1.5+eps+1e-12 {
				t.Errorf("%s: guarantee %v exceeds 3/2+ε = %v", name, g, 1.5+eps)
			}
			if g := algo.Guarantee(); g < 1.5 {
				t.Errorf("%s: guarantee %v below 3/2 — impossible", name, g)
			}
		}
	}
}

// TestApproximationVsExact on tiny mixed instances for all variants.
func TestApproximationVsExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 0))
	eps := 0.3
	for it := 0; it < 20; it++ {
		n, m := 2+rng.IntN(4), 2+rng.IntN(4)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64(), MaxWork: 40})
		opt, _, err := exact.Solve(in, exact.Limits{})
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		for name, algo := range duals(in, eps/2) {
			s, _, err := search(in, algo, eps/2)
			if err != nil {
				t.Fatalf("it %d %s: %v", it, name, err)
			}
			if err := schedule.Validate(in, s, schedule.Options{}); err != nil {
				t.Fatalf("it %d %s: %v", it, name, err)
			}
			if mk := s.Makespan(); mk > (1.5+eps)*opt*(1+1e-9) {
				t.Errorf("it %d %s: makespan %v vs OPT %v — ratio %.4f", it, name, mk, opt, mk/opt)
			}
		}
	}
}

// TestRandomizedEndToEnd hammers the three duals across workloads
// and sizes; all outputs validated, ratio vs lower bound sanity-checked.
func TestRandomizedEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 0))
	for it := 0; it < 60; it++ {
		n := 1 + rng.IntN(50)
		m := 1 + rng.IntN(200)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64()})
		eps := []float64{1, 0.5, 0.25}[rng.IntN(3)]
		lb := in.LowerBound()
		for name, algo := range duals(in, eps/2) {
			s, rep, err := search(in, algo, eps/2)
			if err != nil {
				t.Fatalf("it %d %s (n=%d m=%d eps=%v): %v", it, name, n, m, eps, err)
			}
			if err := schedule.Validate(in, s, schedule.Options{}); err != nil {
				t.Fatalf("it %d %s: %v", it, name, err)
			}
			// ω ≤ OPT and makespan ≤ (3/2+ε)·2ω is the loosest sanity bound
			if mk := s.Makespan(); mk > (1.5+eps)*2*rep.Omega*(1+1e-9) {
				t.Fatalf("it %d %s: makespan %v > (3/2+ε)·2ω = %v", it, name, mk, (1.5+eps)*2*rep.Omega)
			}
			if lb > 0 && s.Makespan() < lb*(1-1e-9) {
				t.Fatalf("it %d %s: makespan below lower bound — validator or bound broken", it, name)
			}
		}
	}
}

// TestStatsAccumulate exercises the diagnostic counters.
func TestStatsAccumulate(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 48, D: 30, Seed: 4, MaxJobs: 20})
	a1 := &Alg1{In: pl.Instance, Eps: 0.4}
	a1.Try(pl.OPT)
	if a1.Stats.Tries != 1 {
		t.Errorf("alg1 stats: %+v", a1.Stats)
	}
	a3 := &Alg3{In: pl.Instance, Eps: 0.4}
	a3.Try(pl.OPT)
	if a3.Stats.Tries != 1 || a3.Stats.Types == 0 {
		t.Errorf("alg3 stats: %+v", a3.Stats)
	}
}
