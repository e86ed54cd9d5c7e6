package sim

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

func planOf(t *testing.T, seed uint64) (*moldable.Instance, *schedule.Schedule) {
	t.Helper()
	in := moldable.Random(moldable.GenConfig{N: 20, M: 32, Seed: seed})
	s, _, err := core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return in, s
}

// TestStaticExactMatchesPlan: without noise, static execution must
// reproduce the plan exactly: same makespan, no overflow, utilization
// equal to work/(m·makespan).
func TestStaticExactMatchesPlan(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		in, s := planOf(t, seed)
		met, err := Run(in, s, Options{Dispatch: Static})
		if err != nil {
			t.Fatal(err)
		}
		if met.Makespan != s.Makespan() {
			t.Errorf("seed %d: realized %v ≠ planned %v", seed, met.Makespan, s.Makespan())
		}
		if met.MaxOverflow != 0 {
			t.Errorf("seed %d: overflow %d executing a validated plan", seed, met.MaxOverflow)
		}
		if met.Stretch != 1 {
			t.Errorf("seed %d: stretch %v", seed, met.Stretch)
		}
		if met.PeakProcs > in.M {
			t.Errorf("seed %d: peak %d > m", seed, met.PeakProcs)
		}
		if met.Utilization <= 0 || met.Utilization > 1+1e-9 {
			t.Errorf("seed %d: utilization %v", seed, met.Utilization)
		}
	}
}

// TestWorkConservingExact: without noise, the work-conserving replay is
// never slower than the plan (it may be faster by closing gaps).
func TestWorkConservingExact(t *testing.T) {
	for _, seed := range []uint64{4, 5, 6} {
		in, s := planOf(t, seed)
		met, err := Run(in, s, Options{Dispatch: WorkConserving})
		if err != nil {
			t.Fatal(err)
		}
		if met.Makespan > s.Makespan()*(1+1e-9) {
			t.Errorf("seed %d: work-conserving replay %v slower than plan %v",
				seed, met.Makespan, s.Makespan())
		}
		if met.PeakProcs > in.M {
			t.Errorf("seed %d: peak %d > m", seed, met.PeakProcs)
		}
	}
}

// TestStaticNoiseOverflow: inflating every duration in a tightly packed
// plan must surface as overflow in static dispatch, while the
// work-conserving executor absorbs it with stretch instead.
func TestNoiseModels(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 16, D: 50, Seed: 7, MaxJobs: 12})
	in := pl.Instance
	// the planted certificate as a schedule: zero idle, maximally fragile
	s := schedule.New(in.M)
	for i := range in.Jobs {
		s.Add(i, pl.Allot[i], pl.Start[i], in.Jobs[i].Time(pl.Allot[i]))
	}
	inflate := func(job int, d moldable.Time) moldable.Time { return d * 1.2 }
	metS, err := Run(in, s, Options{Dispatch: Static, Noise: inflate})
	if err != nil {
		t.Fatal(err)
	}
	if metS.MaxOverflow == 0 {
		t.Error("static dispatch absorbed +20% noise in a zero-idle plan (expected overflow)")
	}
	metW, err := Run(in, s, Options{Dispatch: WorkConserving, Noise: inflate})
	if err != nil {
		t.Fatal(err)
	}
	if metW.PeakProcs > in.M {
		t.Errorf("work-conserving peak %d > m", metW.PeakProcs)
	}
	if metW.Stretch < 1.2-1e-9 {
		t.Errorf("stretch %v < 1.2 with +20%% durations", metW.Stretch)
	}
}

// TestWorkConservingBoundedStretch: with ±f noise the realized makespan
// of the replay stays within the list-scheduling bound
// (1+f)·(W/m + max t) relative to plan quantities.
func TestWorkConservingBoundedStretch(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 0))
	for it := 0; it < 30; it++ {
		in, s := planOf(t, rng.Uint64())
		f := 0.3
		noise := func(job int, d moldable.Time) moldable.Time {
			return d * (1 - f + 2*f*rng.Float64())
		}
		met, err := Run(in, s, Options{Dispatch: WorkConserving, Noise: noise})
		if err != nil {
			t.Fatal(err)
		}
		var maxT moldable.Time
		for _, p := range s.Placements {
			if p.Duration > maxT {
				maxT = p.Duration
			}
		}
		bound := (1 + f) * 2 * float64(s.TotalWork()/moldable.Time(in.M)+maxT)
		if float64(met.Makespan) > bound {
			t.Fatalf("it %d: realized %v exceeds noise-adjusted bound %v", it, met.Makespan, bound)
		}
	}
}

func TestTrace(t *testing.T) {
	in, s := planOf(t, 9)
	met, err := Run(in, s, Options{Dispatch: Static, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(met.Trace) != 2*len(s.Placements) {
		t.Errorf("trace has %d events, want %d", len(met.Trace), 2*len(s.Placements))
	}
	starts, finishes := 0, 0
	for _, e := range met.Trace {
		switch e.Kind {
		case EvStart:
			starts++
		case EvFinish:
			finishes++
		}
	}
	if starts != len(s.Placements) || finishes != len(s.Placements) {
		t.Errorf("trace: %d starts, %d finishes", starts, finishes)
	}
}

func TestRunRejectsPartialSchedules(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 3, M: 4, Seed: 1})
	s := schedule.New(4)
	s.Add(0, 1, 0, in.Jobs[0].Time(1))
	if _, err := Run(in, s, Options{}); err == nil {
		t.Error("partial schedule accepted")
	}
}

func TestRunRejectsBadNoise(t *testing.T) {
	in, s := planOf(t, 10)
	_, err := Run(in, s, Options{Noise: func(int, moldable.Time) moldable.Time { return 0 }})
	if err == nil {
		t.Error("zero duration accepted")
	}
}

// TestUtilizationOfPlanted: a planted-optimum certificate has
// utilization exactly 1 (zero idle by construction).
func TestUtilizationOfPlanted(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 8, D: 20, Seed: 11, MaxJobs: 9})
	s := schedule.New(pl.Instance.M)
	for i := range pl.Instance.Jobs {
		s.Add(i, pl.Allot[i], pl.Start[i], pl.Instance.Jobs[i].Time(pl.Allot[i]))
	}
	met, err := Run(pl.Instance, s, Options{Dispatch: Static})
	if err != nil {
		t.Fatal(err)
	}
	if met.Utilization < 1-1e-9 || met.Utilization > 1+1e-9 {
		t.Errorf("planted utilization %v, want 1", met.Utilization)
	}
}

// TestLT2UtilizationComparison sanity-checks that metrics discriminate:
// the 2-approx schedule of a fragmented workload has utilization < 1.
func TestLT2Utilization(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 15, M: 16, Seed: 12})
	s, _ := lt.TwoApprox(in)
	met, err := Run(in, s, Options{Dispatch: Static})
	if err != nil {
		t.Fatal(err)
	}
	if met.Utilization >= 1 {
		t.Errorf("utilization %v ≥ 1 for a mixed workload", met.Utilization)
	}
}
