package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

func TestAllAlgorithmsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	algos := []Algorithm{LT2, MRT, Alg1, Alg3, Linear, Auto}
	for it := 0; it < 15; it++ {
		in := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(40), M: 1 + rng.IntN(128),
			Seed: rng.Uint64()})
		for _, a := range algos {
			s, rep, err := ScheduleCtx(context.Background(), in, Options{Algorithm: a, Eps: 0.25, Validate: true})
			if err != nil {
				t.Fatalf("it %d %v: %v", it, a, err)
			}
			if rep.Makespan != s.Makespan() {
				t.Fatalf("%v: report makespan mismatch", a)
			}
			if rep.Ratio > rep.Guarantee*2+1e-9 { // makespan ≤ g·OPT ≤ g·2·LB
				t.Errorf("it %d %v: ratio-to-LB %.3f exceeds 2·guarantee", it, a, rep.Ratio)
			}
		}
	}
}

func TestFPTASAlgorithmGuarantee(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 8192, D: 64, Seed: 5, MaxJobs: 20})
	s, rep, err := ScheduleCtx(context.Background(), pl.Instance, Options{Algorithm: FPTAS, Eps: 0.2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(); mk > 1.2*pl.OPT*(1+1e-9) {
		t.Errorf("FPTAS ratio %.4f > 1.2", mk/pl.OPT)
	}
	if rep.Guarantee != 1.2 {
		t.Errorf("guarantee %v, want 1.2", rep.Guarantee)
	}
}

func TestAutoPicksFPTASForLargeM(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 1 << 14, D: 10, Seed: 2, MaxJobs: 8})
	_, rep, err := ScheduleCtx(context.Background(), pl.Instance, Options{Algorithm: Auto, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != FPTAS {
		t.Errorf("auto picked %v for m=2^14, n=8", rep.Algorithm)
	}
	in := moldable.Random(moldable.GenConfig{N: 64, M: 32, Seed: 3})
	_, rep2, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Auto, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Algorithm != Linear {
		t.Errorf("auto picked %v for m=32, n=64", rep2.Algorithm)
	}
}

func TestPTASRouter(t *testing.T) {
	// large m: FPTAS path
	pl := moldable.Planted(moldable.PlantedConfig{M: 1 << 13, D: 32, Seed: 4, MaxJobs: 10})
	s, _, err := PTAS(context.Background(), pl.Instance, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if mk := s.Makespan(); mk > 1.5*pl.OPT*(1+1e-9) {
		t.Errorf("PTAS ratio %.3f > 1+ε", mk/pl.OPT)
	}
	// tiny instance: exact path
	tiny := moldable.Random(moldable.GenConfig{N: 3, M: 3, Seed: 5, MaxWork: 20})
	if _, rep, err := PTAS(context.Background(), tiny, 0.1); err != nil {
		t.Fatal(err)
	} else if rep.Ratio != 1 {
		t.Errorf("exact path ratio %v", rep.Ratio)
	}
	// middle regime: explicit error
	mid := moldable.Random(moldable.GenConfig{N: 100, M: 64, Seed: 6})
	if _, _, err := PTAS(context.Background(), mid, 0.1); err == nil {
		t.Error("middle regime must return ErrPTASRegime")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, a := range []Algorithm{Auto, LT2, MRT, Alg1, Alg3, Linear, FPTAS} {
		got, err := ParseAlgorithm(a.String())
		if err != nil || got != a {
			t.Errorf("round trip failed for %v", a)
		}
	}
	// Matching is case-insensitive: flag values like -algo FPTAS work.
	for _, s := range []string{"FPTAS", "Fptas", "LT2", "Linear", "AUTO", "mRt"} {
		if _, err := ParseAlgorithm(s); err != nil {
			t.Errorf("ParseAlgorithm(%q) = %v, want case-insensitive match", s, err)
		}
	}
	_, err := ParseAlgorithm("nope")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	// The error must enumerate every valid name, so a CLI user can
	// self-correct without reading the source.
	for _, name := range AlgorithmNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %q", err, name)
		}
	}
}

func TestScheduleRejectsBadEps(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 2, M: 2, Seed: 1})
	if _, _, err := ScheduleCtx(context.Background(), in, Options{Eps: -0.5}); !errors.Is(err, scherr.ErrBadEps) {
		t.Errorf("negative eps: %v, want ErrBadEps", err)
	}
	if _, _, err := ScheduleCtx(context.Background(), in, Options{Eps: 1.5}); !errors.Is(err, scherr.ErrBadEps) {
		t.Errorf("eps > 1: %v, want ErrBadEps", err)
	}
}

// TestFPTASRegimeTyped: forcing the FPTAS outside m ≥ 16n/ε yields the
// typed regime error with the violated bound attached.
func TestFPTASRegimeTyped(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 64, M: 8, Seed: 2})
	_, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: FPTAS, Eps: 0.5})
	if !errors.Is(err, scherr.ErrRegime) {
		t.Fatalf("out-of-regime FPTAS = %v, want ErrRegime", err)
	}
	var re *scherr.RegimeError
	if !errors.As(err, &re) {
		t.Fatalf("error %v does not carry *RegimeError", err)
	}
	if re.M != 8 || re.N != 64 || re.MinM <= re.M {
		t.Errorf("RegimeError bound looks wrong: %+v", re)
	}
}

// TestRefusalsPinned pins every refusal of the Theorem-3 pipeline: the
// FPTAS forced below m ≥ 16n/ε, Conv below fast.ConvMinM (also for
// n ≤ 2, where m ≥ 16n would otherwise pick the FPTAS dual), and ε
// outside (0, 1] for every algorithm. The texts are the wire-visible
// error strings and must not drift.
func TestRefusalsPinned(t *testing.T) {
	const regime = "instance outside the algorithm's proven regime"
	cases := []struct {
		algo Algorithm
		n, m int
		eps  float64
		// minM is the RegimeError bound; 0 marks a bad-ε refusal.
		minM int
		text string
	}{
		{FPTAS, 100, 50, 0.5, 3200, "fptas: " + regime + ": requires m ≥ 3200 (n=100, ε=0.5), have m=50"},
		{FPTAS, 10, 319, 0.5, 320, "fptas: " + regime + ": requires m ≥ 320 (n=10, ε=0.5), have m=319"},
		{FPTAS, 64, 5119, 0.2, 5120, "fptas: " + regime + ": requires m ≥ 5120 (n=64, ε=0.2), have m=5119"},
		{FPTAS, 4, 159, 0.1, 640, "fptas: " + regime + ": requires m ≥ 640 (n=4, ε=0.1), have m=159"},
		{Conv, 4, 39, 0.25, 40, "conv: " + regime + ": requires m ≥ 40 (n=4, ε=0.25), have m=39"},
		{Conv, 2, 39, 0.25, 40, "conv: " + regime + ": requires m ≥ 40 (n=2, ε=0.25), have m=39"},
		{Conv, 1, 32, 0.1, 40, "conv: " + regime + ": requires m ≥ 40 (n=1, ε=0.1), have m=32"},
		{Conv, 1, 39, 1, 40, "conv: " + regime + ": requires m ≥ 40 (n=1, ε=1), have m=39"},
		{Linear, 4, 8, -0.5, 0, "core: eps=-0.5: eps must be in (0,1]"},
		{MRT, 4, 8, 1.5, 0, "core: eps=1.5: eps must be in (0,1]"},
		{FPTAS, 4, 8, 2, 0, "core: eps=2: eps must be in (0,1]"},
		{Conv, 4, 8, 1.0000001, 0, "core: eps=1.0000001: eps must be in (0,1]"},
		{LT2, 4, 8, -1, 0, "core: eps=-1: eps must be in (0,1]"},
	}
	for _, c := range cases {
		in := moldable.Random(moldable.GenConfig{N: c.n, M: c.m, Seed: 5})
		for _, sc := range []*Scratch{nil, NewScratch()} {
			s, rep, err := ScheduleScratchCtx(context.Background(), in, Options{Algorithm: c.algo, Eps: c.eps}, sc)
			if s != nil || rep != (Report{}) {
				t.Errorf("%s n=%d m=%d ε=%v: refusal returned a schedule or report %+v", c.algo, c.n, c.m, c.eps, rep)
			}
			if err == nil || err.Error() != c.text {
				t.Fatalf("%s n=%d m=%d ε=%v: err = %v, want %q", c.algo, c.n, c.m, c.eps, err, c.text)
			}
			if c.minM == 0 {
				if !errors.Is(err, scherr.ErrBadEps) || errors.Is(err, scherr.ErrRegime) {
					t.Errorf("%s ε=%v: %v does not match ErrBadEps alone", c.algo, c.eps, err)
				}
				continue
			}
			var re *scherr.RegimeError
			if !errors.Is(err, scherr.ErrRegime) || !errors.As(err, &re) {
				t.Fatalf("%s n=%d m=%d: %v is not a *RegimeError", c.algo, c.n, c.m, err)
			}
			want := scherr.RegimeError{Algorithm: c.algo.String(), N: c.n, M: c.m, Eps: c.eps, MinM: c.minM}
			if *re != want {
				t.Errorf("RegimeError %+v, want %+v", *re, want)
			}
		}
	}
	// The bounds themselves are inside the regime.
	for _, c := range []struct {
		algo Algorithm
		n, m int
		eps  float64
	}{{FPTAS, 10, 320, 0.5}, {Conv, 4, 40, 0.25}, {Conv, 1, 40, 0.1}} {
		in := moldable.Random(moldable.GenConfig{N: c.n, M: c.m, Seed: 5})
		if _, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: c.algo, Eps: c.eps}); err != nil {
			t.Errorf("%s n=%d m=%d ε=%v at the bound: %v", c.algo, c.n, c.m, c.eps, err)
		}
	}
}

// TestValidateOption: a validating schedule round-trips; the validator is
// wired in (mutating the schedule would fail, covered elsewhere).
func TestValidateOption(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 6, M: 16, Seed: 9})
	if _, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Linear, Eps: 0.5, Validate: true}); err != nil {
		t.Fatal(err)
	}
}

// TestGuaranteeRespected across algorithms on planted instances.
func TestGuaranteeRespected(t *testing.T) {
	for _, seed := range []uint64{11, 12, 13} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 40, D: 77, Seed: seed, MaxJobs: 22})
		for _, a := range []Algorithm{LT2, MRT, Alg1, Alg3, Linear} {
			s, rep, err := ScheduleCtx(context.Background(), pl.Instance, Options{Algorithm: a, Eps: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if mk := s.Makespan(); mk > rep.Guarantee*pl.OPT*(1+1e-9) {
				t.Errorf("seed %d %v: makespan %v > guarantee·OPT = %v",
					seed, a, mk, rep.Guarantee*pl.OPT)
			}
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 4, M: 8, Seed: 10})
	s, _, err := ScheduleCtx(context.Background(), in, Options{Algorithm: Linear, Eps: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	s.Placements[0].Duration *= 2
	if verr := schedule.Validate(in, s, schedule.Options{}); verr == nil {
		t.Error("validator missed corrupted duration")
	}
}
