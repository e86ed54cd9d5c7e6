package fast_test

// The fast algorithms run end to end through core.ScheduleCtx and
// core.ScheduleScratchCtx, their one entry point, which also owns the
// m ≥ 16n switch to the FPTAS dual and Conv's m ≥ ConvMinM regime;
// these tests pin both through it.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/fast"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// TestLargeMRegimeUsesFPTAS: for m ≥ 16n the fast algorithms must still
// deliver (3/2+ε) — via the FPTAS dual — and fast.
func TestLargeMRegimeUsesFPTAS(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 4096, D: 50, Seed: 2, MaxJobs: 12})
	for _, a := range []core.Algorithm{core.Alg1, core.Alg3, core.Linear} {
		s, _, err := core.ScheduleCtx(context.Background(), pl.Instance, core.Options{Algorithm: a, Eps: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if err := schedule.Validate(pl.Instance, s, schedule.Options{}); err != nil {
			t.Fatal(err)
		}
		if mk := s.Makespan(); mk > 1.7*pl.OPT*(1+1e-9) {
			t.Errorf("%s large-m: ratio %.4f > 1.7", a, mk/pl.OPT)
		}
	}
}

// TestScheduleConvEndToEnd: the full Conv run stays within (3/2+ε)·OPT
// on planted instances in both regimes (the convolution knapsack at
// m < 16n, the FPTAS dual at m ≥ 16n).
func TestScheduleConvEndToEnd(t *testing.T) {
	cases := []struct {
		name    string
		m, jobs int
	}{
		{"knapsack-regime", 64, 40}, // m < 16n
		{"wide-regime", 8192, 24},   // m ≥ 16n: the FPTAS dual
		{"boundary", 640, 40},       // m = 16n at 40 jobs
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 6; seed++ {
				pl := moldable.Planted(moldable.PlantedConfig{M: tc.m, D: 100, Seed: seed, MaxJobs: tc.jobs})
				eps := 0.25
				s, rep, err := core.ScheduleCtx(context.Background(), pl.Instance, core.Options{Algorithm: core.Conv, Eps: eps})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := schedule.Validate(pl.Instance, s, schedule.Options{}); err != nil {
					t.Fatalf("seed %d: invalid schedule: %v", seed, err)
				}
				if ratio := float64(s.Makespan() / pl.OPT); ratio > 1.5+eps+1e-9 {
					t.Fatalf("seed %d: ratio %.4f > 1.5+ε", seed, ratio)
				}
				if rep.Omega <= 0 || rep.Iterations == 0 {
					t.Fatalf("seed %d: degenerate report %+v", seed, rep)
				}
			}
		})
	}
}

// TestScheduleConvRegimeError: below ConvMinM machines the algorithm
// is out of regime and must say so with the typed error carrying the
// violated bound — the signal the online runtime's fallback keys on.
func TestScheduleConvRegimeError(t *testing.T) {
	conv := core.Options{Algorithm: core.Conv, Eps: 0.25}
	in := moldable.Random(moldable.GenConfig{N: 4, M: fast.ConvMinM - 1, Seed: 5})
	_, _, err := core.ScheduleCtx(context.Background(), in, conv)
	if !errors.Is(err, scherr.ErrRegime) {
		t.Fatalf("m=%d: err = %v, want ErrRegime", fast.ConvMinM-1, err)
	}
	var re *scherr.RegimeError
	if !errors.As(err, &re) {
		t.Fatalf("err %v does not unwrap to *RegimeError", err)
	}
	if re.MinM != fast.ConvMinM || re.Algorithm != "conv" {
		t.Fatalf("RegimeError %+v, want MinM=%d algo=conv", re, fast.ConvMinM)
	}
	// At the bound itself the algorithm must run.
	in2 := moldable.Random(moldable.GenConfig{N: 4, M: fast.ConvMinM, Seed: 5})
	if _, _, err := core.ScheduleCtx(context.Background(), in2, conv); err != nil {
		t.Fatalf("m=%d: %v, want success", fast.ConvMinM, err)
	}
}

// TestScheduleConvScratchReuse: pooled and fresh Conv runs must agree
// placement-for-placement across interleaved shapes and regimes.
func TestScheduleConvScratchReuse(t *testing.T) {
	ctx := context.Background()
	conv := core.Options{Algorithm: core.Conv, Eps: 0.25}
	sc := core.NewScratch()
	shapes := []struct{ n, m int }{{40, 64}, {13, 200}, {8, 4096}, {25, 1280}}
	for rep := 0; rep < 3; rep++ {
		for i, sh := range shapes {
			in := moldable.Random(moldable.GenConfig{N: sh.n, M: sh.m, Seed: uint64(10 + i)})
			want, wantRep, err1 := core.ScheduleScratchCtx(ctx, in, conv, nil)
			got, gotRep, err2 := core.ScheduleScratchCtx(ctx, in, conv, sc)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("#%d: err mismatch %v vs %v", i, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if want.M != got.M || len(want.Placements) != len(got.Placements) {
				t.Fatalf("#%d rep %d: schedule shape differs", i, rep)
			}
			for k := range want.Placements {
				if want.Placements[k] != got.Placements[k] {
					t.Fatalf("#%d rep %d: placement %d differs: %+v vs %+v",
						i, rep, k, want.Placements[k], got.Placements[k])
				}
			}
			if wantRep.Makespan != gotRep.Makespan || wantRep.Iterations != gotRep.Iterations {
				t.Fatalf("#%d rep %d: report differs", i, rep)
			}
		}
	}
}
