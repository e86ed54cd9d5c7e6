package moldable

import (
	"context"
	"math/rand/v2"
	"testing"
)

func TestRandomGeneratorValid(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1234} {
		in := Random(GenConfig{N: 50, M: 256, Seed: seed})
		if in.N() != 50 || in.M != 256 {
			t.Fatalf("wrong shape: n=%d m=%d", in.N(), in.M)
		}
		if err := in.ValidateCtx(context.Background(), 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomGeneratorDeterministic(t *testing.T) {
	a := Random(GenConfig{N: 20, M: 64, Seed: 9})
	b := Random(GenConfig{N: 20, M: 64, Seed: 9})
	for i := range a.Jobs {
		for _, p := range []int{1, 7, 64} {
			if a.Jobs[i].Time(p) != b.Jobs[i].Time(p) {
				t.Fatalf("job %d differs between equal seeds", i)
			}
		}
	}
	c := Random(GenConfig{N: 20, M: 64, Seed: 10})
	same := true
	for i := range a.Jobs {
		if a.Jobs[i].Time(1) != c.Jobs[i].Time(1) {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestRandomMixSelection(t *testing.T) {
	in := Random(GenConfig{N: 40, M: 32, Seed: 3, Sequential: 1}) // only sequential
	for i, j := range in.Jobs {
		if _, ok := j.(Sequential); !ok {
			t.Fatalf("job %d is %T, want Sequential", i, j)
		}
	}
}

// TestPlantedCertificate verifies the planted schedule is feasible, has
// makespan exactly D, and that total work equals m·D (the proof that
// OPT = D).
func TestPlantedCertificate(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		pl := Planted(PlantedConfig{M: 32, D: 50, Seed: seed, MaxJobs: 25})
		in := pl.Instance
		if err := in.ValidateCtx(context.Background(), 0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var work Time
		for i, j := range in.Jobs {
			work += Work(j, pl.Allot[i])
			end := pl.Start[i] + j.Time(pl.Allot[i])
			if end > pl.OPT*(1+1e-9) {
				t.Fatalf("seed %d: planted job %d ends at %v > OPT=%v", seed, i, end, pl.OPT)
			}
		}
		if want := Time(in.M) * pl.OPT; work < want*(1-1e-9) || work > want*(1+1e-9) {
			t.Fatalf("seed %d: planted work %v ≠ m·D = %v (packing not exact)", seed, work, want)
		}
	}
}

// TestPlantedUsage verifies that the planted rectangles never exceed m
// processors at any time (event sweep over the certificate).
func TestPlantedUsage(t *testing.T) {
	pl := Planted(PlantedConfig{M: 16, D: 10, Seed: 5, MaxJobs: 40})
	type ev struct {
		t     Time
		delta int
	}
	var evs []ev
	for i, j := range pl.Instance.Jobs {
		dur := j.Time(pl.Allot[i])
		evs = append(evs, ev{pl.Start[i], pl.Allot[i]}, ev{pl.Start[i] + dur, -pl.Allot[i]})
	}
	// naive sweep
	for _, e := range evs {
		usage := 0
		for i, j := range pl.Instance.Jobs {
			dur := j.Time(pl.Allot[i])
			if pl.Start[i] <= e.t+1e-12 && e.t < pl.Start[i]+dur-1e-12 {
				usage += pl.Allot[i]
			}
		}
		if usage > pl.Instance.M {
			t.Fatalf("usage %d > m=%d at t=%v", usage, pl.Instance.M, e.t)
		}
	}
}

func TestPlantedJobCount(t *testing.T) {
	pl := Planted(PlantedConfig{M: 64, D: 100, Seed: 1, MaxJobs: 50})
	if n := pl.Instance.N(); n < 2 || n > 50 {
		t.Errorf("planted job count %d outside (2,50]", n)
	}
}

func TestSmallTableMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 0))
	for it := 0; it < 100; it++ {
		tb := SmallTable(rng, 16, 100)
		if err := CheckMonotone(tb, 16, 0); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
	}
}

func TestDescribe(t *testing.T) {
	in := &Instance{M: 4, Jobs: []Job{Sequential{T: 2}}}
	if s := Describe(in); s == "" {
		t.Error("empty description")
	}
}

func TestPresets(t *testing.T) {
	for _, name := range PresetNames() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cfg.N, cfg.M, cfg.Seed = 30, 64, 5
		in := Random(cfg)
		if err := in.ValidateCtx(context.Background(), 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := Preset("bogus"); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestPresetCharacter(t *testing.T) {
	// serialfarm: no speedup at all; embarrassing: perfect speedup.
	sf, _ := Preset("serialfarm")
	sf.N, sf.M, sf.Seed = 20, 128, 1
	if st := Summarize(Random(sf)); st.AvgSpeedupAtM > 1.001 {
		t.Errorf("serialfarm avg speedup %v, want 1", st.AvgSpeedupAtM)
	}
	em, _ := Preset("embarrassing")
	em.N, em.M, em.Seed = 20, 128, 1
	if st := Summarize(Random(em)); st.AvgSpeedupAtM < 127 {
		t.Errorf("embarrassing avg speedup %v, want ≈ m", st.AvgSpeedupAtM)
	}
}

func TestSummarize(t *testing.T) {
	in := &Instance{M: 4, Jobs: []Job{Sequential{T: 2}, PerfectSpeedup{W: 8}}}
	st := Summarize(in)
	if st.TotalWork1 != 10 || st.MaxT1 != 8 || st.MinT1 != 2 || st.MaxTM != 2 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.String() == "" {
		t.Error("empty stats string")
	}
}
