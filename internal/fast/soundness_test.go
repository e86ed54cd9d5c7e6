package fast

import (
	"math/rand/v2"
	"testing"

	"repro/internal/dual"
	"repro/internal/exact"
	"repro/internal/moldable"
	"repro/internal/mrt"
)

// TestRejectionSoundness is the sharpest dual-contract test: on tiny
// instances where the exact optimum is computable, NO dual algorithm may
// reject a target d ≥ OPT. (Accepting d < OPT is allowed — the
// algorithm just did better than required.) This covers arbitrary mixed
// workloads, not only planted ones.
func TestRejectionSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0))
	for it := 0; it < 25; it++ {
		n, m := 2+rng.IntN(4), 2+rng.IntN(4)
		in := moldable.Random(moldable.GenConfig{N: n, M: m, Seed: rng.Uint64(), MaxWork: 60})
		opt, _, err := exact.Solve(in, exact.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		algos := map[string]dual.Algorithm{
			"mrt":    &mrt.Dual{In: in},
			"alg1":   &Alg1{In: in, Eps: 0.4},
			"alg3":   &Alg3{In: in, Eps: 0.4},
			"linear": &Alg3{In: in, Eps: 0.4, Buckets: true},
			"conv":   &Alg1{In: in, Eps: 0.4, conv: true},
		}
		for name, algo := range algos {
			for _, f := range []float64{1.0, 1.0001, 1.2, 1.9, 3} {
				d := opt * f
				s, ok := algo.Try(d)
				if !ok {
					t.Fatalf("it %d %s: rejected d = %.6g ≥ OPT = %.6g (n=%d m=%d)",
						it, name, d, opt, n, m)
				}
				if mk := s.Makespan(); mk > algo.Guarantee()*d*(1+1e-9) {
					t.Fatalf("it %d %s: makespan %v > c·d", it, name, mk)
				}
			}
		}
	}
}

// TestAcceptanceMeansSchedule: whenever a dual accepts any d (even below
// OPT), the schedule it returns must genuinely have makespan ≤ c·d —
// there is no "lucky accept" escape hatch.
func TestAcceptanceMeansSchedule(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 0))
	for it := 0; it < 50; it++ {
		in := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(25), M: 1 + rng.IntN(64),
			Seed: rng.Uint64()})
		lb := in.LowerBound()
		algo := &Alg3{In: in, Eps: 0.5, Buckets: true}
		for _, f := range []float64{0.3, 0.6, 0.9, 1.0, 1.4} {
			d := lb * f
			if s, ok := algo.Try(d); ok {
				if mk := s.Makespan(); mk > algo.Guarantee()*d*(1+1e-9) {
					t.Fatalf("it %d f=%v: accepted with makespan %v > c·d = %v",
						it, f, mk, algo.Guarantee()*d)
				}
			}
		}
	}
}
