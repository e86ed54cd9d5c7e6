package certify

import (
	"context"
	"math/rand/v2"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// TestRoundTrip: any schedule our algorithms produce yields a
// certificate that verifies at its own makespan — the §2 exchange
// argument in executable form.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for it := 0; it < 40; it++ {
		in := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(25), M: 1 + rng.IntN(40),
			Seed: rng.Uint64()})
		s, _, err := core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		cert, err := FromSchedule(s, in.N())
		if err != nil {
			t.Fatal(err)
		}
		replay, err := Verify(in, s.Makespan(), cert)
		if err != nil {
			t.Fatalf("it %d: certificate of own schedule rejected: %v", it, err)
		}
		if replay.Makespan() > s.Makespan()*(1+1e-9) {
			t.Fatalf("it %d: replay makespan %v worse than witnessed %v",
				it, replay.Makespan(), s.Makespan())
		}
	}
}

// TestPlantedCertificate: the planted-optimum generator's own
// certificate verifies at OPT — independent confirmation that planted
// instances really have the claimed optimal makespan achievable.
func TestPlantedCertificate(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 24, D: 50, Seed: seed, MaxJobs: 15})
		s := schedule.New(pl.Instance.M)
		for i := range pl.Instance.Jobs {
			s.Add(i, pl.Allot[i], pl.Start[i], pl.Instance.Jobs[i].Time(pl.Allot[i]))
		}
		cert, err := FromSchedule(s, pl.Instance.N())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Verify(pl.Instance, pl.OPT, cert); err != nil {
			t.Fatalf("seed %d: planted certificate rejected: %v", seed, err)
		}
	}
}

func TestVerifyRejectsBadCertificates(t *testing.T) {
	in := &moldable.Instance{M: 2, Jobs: []moldable.Job{
		moldable.Sequential{T: 2}, moldable.Sequential{T: 3}}}
	good := &Certificate{Allot: []int{1, 1}, Order: []int{0, 1}}
	if _, err := Verify(in, 3, good); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	cases := []struct {
		name string
		c    *Certificate
		d    moldable.Time
	}{
		{"too tight d", good, 2.9},
		{"bad allot", &Certificate{Allot: []int{0, 1}, Order: []int{0, 1}}, 10},
		{"allot too large", &Certificate{Allot: []int{3, 1}, Order: []int{0, 1}}, 10},
		{"not a permutation", &Certificate{Allot: []int{1, 1}, Order: []int{0, 0}}, 10},
		{"wrong shape", &Certificate{Allot: []int{1}, Order: []int{0}}, 10},
	}
	for _, c := range cases {
		if _, err := Verify(in, c.d, c.c); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestFromScheduleRejectsPartial(t *testing.T) {
	s := schedule.New(2)
	s.Add(0, 1, 0, 1)
	if _, err := FromSchedule(s, 2); err == nil {
		t.Error("partial schedule accepted")
	}
	s.Add(0, 1, 1, 1) // duplicate job 0
	if _, err := FromSchedule(s, 2); err == nil {
		t.Error("duplicate job accepted")
	}
}

func TestBits(t *testing.T) {
	// n(⌈log m⌉+⌈log n⌉): 8 jobs, 1024 machines → 8·(10+3) = 104
	if got := Bits(8, 1024); got != 104 {
		t.Errorf("Bits(8,1024) = %d, want 104", got)
	}
}
