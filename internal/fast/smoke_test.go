package fast

import (
	"context"
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
		type algo struct {
			name string
			run  func() (*schedule.Schedule, error)
		}
		algos := []algo{
			{"mrt", func() (*schedule.Schedule, error) {
				s, _, err := mrt.Schedule(context.Background(), in, eps, nil)
				return s, err
			}},
			{"alg1", func() (*schedule.Schedule, error) {
				s, _, err := ScheduleAlg1(context.Background(), in, eps, nil)
				return s, err
			}},
			{"alg3", func() (*schedule.Schedule, error) {
				s, _, err := ScheduleAlg3(context.Background(), in, eps, nil)
				return s, err
			}},
			{"linear", func() (*schedule.Schedule, error) {
				s, _, err := ScheduleLinear(context.Background(), in, eps, nil)
				return s, err
			}},
		}
		for _, a := range algos {
			s, err := a.run()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, a.name, err)
			}
			if err := schedule.Validate(in, s, schedule.Options{RequireConcrete: false}); err != nil {
				t.Fatalf("seed %d %s: invalid schedule: %v", seed, a.name, err)
			}
			ratio := s.Makespan() / pl.OPT
			if ratio > 1.5+eps+1e-9 {
				t.Errorf("seed %d %s: ratio %.4f exceeds %.4f", seed, a.name, ratio, 1.5+eps)
			}
			t.Logf("seed %d %s: makespan=%.4f OPT=%.4f ratio=%.4f", seed, a.name, s.Makespan(), pl.OPT, ratio)
		}
	}
}
