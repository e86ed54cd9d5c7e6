package baseline

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

func TestBaselinesProduceValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for it := 0; it < 50; it++ {
		in := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(30), M: 1 + rng.IntN(64),
			Seed: rng.Uint64()})
		for _, name := range Names() {
			s := Run(name, in)
			if s == nil {
				t.Fatalf("%s returned nil", name)
			}
			if err := schedule.Validate(in, s, schedule.Options{}); err != nil {
				t.Fatalf("it %d %s: %v", it, name, err)
			}
		}
	}
}

func TestRunUnknownName(t *testing.T) {
	if Run("bogus", &moldable.Instance{M: 1, Jobs: []moldable.Job{moldable.Sequential{T: 1}}}) != nil {
		t.Error("unknown baseline returned a schedule")
	}
}

// TestBaselinesCanBeArbitrarilyBad documents why they are baselines: on
// crafted instances each naive strategy loses by a large factor where
// the (3/2+ε) algorithm stays within its guarantee.
func TestBaselinesCanBeArbitrarilyBad(t *testing.T) {
	// One perfectly parallel giant: all-sequential cannot shrink it.
	giant := &moldable.Instance{M: 64, Jobs: []moldable.Job{moldable.PerfectSpeedup{W: 640}}}
	if mk := AllSequential(giant).Makespan(); mk < 600 {
		t.Errorf("all-sequential makespan %v — construction broken", mk)
	}
	sg, _, err := core.ScheduleCtx(context.Background(), giant, core.Options{Algorithm: core.Linear, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sg.Makespan() > 2*10+1e-9 { // OPT = 10 = 640/64
		t.Errorf("linear algorithm makespan %v on the giant", sg.Makespan())
	}

	// Many sequential jobs: all-parallel serializes them.
	farm := &moldable.Instance{M: 8}
	for i := 0; i < 32; i++ {
		farm.Jobs = append(farm.Jobs, moldable.Sequential{T: 1})
	}
	if mk := AllParallel(farm).Makespan(); mk != 32 {
		t.Errorf("all-parallel makespan %v, want 32", mk)
	}
	sf, _, err := core.ScheduleCtx(context.Background(), farm, core.Options{Algorithm: core.Linear, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sf.Makespan() > 8+1e-9 { // OPT = 4; (3/2+ε)·4 = 8
		t.Errorf("linear algorithm makespan %v on the farm", sf.Makespan())
	}
}

func TestEqualShareSharesEvenly(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 4, M: 16, Seed: 2})
	s := EqualShare(in)
	for _, p := range s.Placements {
		if p.Procs != 4 {
			t.Errorf("job %d got %d procs, want 4", p.Job, p.Procs)
		}
	}
}
