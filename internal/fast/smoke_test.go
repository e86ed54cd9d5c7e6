package fast

import (
	"testing"

	"repro/internal/moldable"
	"repro/internal/mrt"
	"repro/internal/schedule"
)

// TestSmokePlanted runs all three fast algorithms and the MRT baseline on
// planted-optimum instances and checks validity and the (3/2+ε) bound.
func TestSmokePlanted(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 64, D: 100, Seed: seed, MaxJobs: 30})
		in := pl.Instance
		eps := 0.25
		algos := duals(in, eps/2)
		algos["mrt"] = &mrt.Dual{In: in}
		for name, algo := range algos {
			slack := eps / 2
			if name == "mrt" {
				slack = eps
			}
			s, _, err := search(in, algo, slack)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if err := schedule.Validate(in, s, schedule.Options{RequireConcrete: false}); err != nil {
				t.Fatalf("seed %d %s: invalid schedule: %v", seed, name, err)
			}
			ratio := s.Makespan() / pl.OPT
			if ratio > 1.5+eps+1e-9 {
				t.Errorf("seed %d %s: ratio %.4f exceeds %.4f", seed, name, ratio, 1.5+eps)
			}
			t.Logf("seed %d %s: makespan=%.4f OPT=%.4f ratio=%.4f", seed, name, s.Makespan(), pl.OPT, ratio)
		}
	}
}
