package fptas_test

// The full FPTAS (estimator, then the dual search at ε/2) runs through
// core.ScheduleCtx, its one entry point; these tests pin it end to end.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fptas"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

func run(in *moldable.Instance, eps float64) (*schedule.Schedule, *core.Report, error) {
	return core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.FPTAS, Eps: eps})
}

func TestFPTASApproximation(t *testing.T) {
	for _, eps := range []float64{1, 0.5, 0.2} {
		for _, seed := range []uint64{1, 2, 3} {
			// m ≥ 16n/ε: the regime of Theorem 2.
			m := fptas.MinM(24, eps) + 7
			pl := moldable.Planted(moldable.PlantedConfig{M: m, D: 100, Seed: seed, MaxJobs: 24})
			in := pl.Instance
			s, rep, err := run(in, eps)
			if err != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, err)
			}
			if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
				t.Fatalf("eps=%v seed=%d: %v", eps, seed, verr)
			}
			if mk := s.Makespan(); mk > (1+eps)*pl.OPT*(1+1e-9) {
				t.Errorf("eps=%v seed=%d: makespan %v > (1+ε)OPT = %v (report %+v)",
					eps, seed, mk, (1+eps)*pl.OPT, rep)
			}
		}
	}
}

func TestScheduleRequiresLargeM(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 100, M: 50, Seed: 1})
	if _, _, err := run(in, 0.5); !errors.Is(err, scherr.ErrRegime) {
		t.Errorf("FPTAS at m < 16n/ε: err = %v, want ErrRegime", err)
	}
}

func TestScheduleRejectsBadEps(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 4, M: 4096, Seed: 1})
	for _, eps := range []float64{-1, 1.5} {
		if _, _, err := run(in, eps); !errors.Is(err, scherr.ErrBadEps) {
			t.Errorf("eps=%v: err = %v, want ErrBadEps", eps, err)
		}
	}
}
