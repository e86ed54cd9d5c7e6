package mrt

import (
	"testing"

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

func TestStatsAccumulate(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 16, D: 10, Seed: 1, MaxJobs: 8})
	algo := &Dual{In: pl.Instance}
	algo.Try(pl.OPT)
	algo.Try(pl.OPT * 2)
	if algo.Stats.Tries != 2 || algo.Stats.KnapsackCells == 0 {
		t.Errorf("stats not accumulated: %+v", algo.Stats)
	}
}
