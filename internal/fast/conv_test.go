package fast

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"

	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// TestConvWideRejectionSoundness: the large-machine compressed dual
// must never reject d ≥ OPT and must honour makespan ≤ 3/2·d on every
// accept. Planted instances give an exact OPT at machine counts where
// the m ≥ 32n regime actually holds.
func TestConvWideRejectionSoundness(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 0))
	for it := 0; it < 20; it++ {
		m := 4096 << (it % 3)
		pl := moldable.Planted(moldable.PlantedConfig{
			M: m, D: 50 + 100*rng.Float64(), Seed: rng.Uint64(), MaxJobs: 1 + rng.IntN(m/64),
		})
		in := pl.Instance
		if convRegimeN*in.N() > in.M {
			t.Fatalf("it %d: planted n=%d too large for the wide regime at m=%d", it, in.N(), in.M)
		}
		algo := &convWide{In: in, Scratch: &Scratch{}}
		for _, f := range []float64{1.0, 1.0001, 1.3, 2.5} {
			d := pl.OPT * f
			s, ok := algo.Try(d)
			if !ok {
				t.Fatalf("it %d: convWide rejected d = %.6g ≥ OPT = %.6g (n=%d m=%d)",
					it, d, pl.OPT, in.N(), in.M)
			}
			if mk := s.Makespan(); mk > algo.Guarantee()*d*(1+1e-9) {
				t.Fatalf("it %d: makespan %v > 3/2·d = %v", it, mk, algo.Guarantee()*d)
			}
			if err := schedule.Validate(in, s, schedule.Options{}); err != nil {
				t.Fatalf("it %d: invalid schedule: %v", it, err)
			}
		}
	}
}

// TestConvCandidateGrid pins the integer invariants the soundness
// argument needs: candidates strictly increase, cover [1, b̃) densely,
// end exactly at m, and consecutive wide candidates stay within the
// factor 1+1/(2·convRho)+1/g ≤ 1+1/convRho.
func TestConvCandidateGrid(t *testing.T) {
	sc := &Scratch{}
	for _, m := range []int{1, 39, 40, 41, 4096, 1 << 20} {
		cands := sc.convCands(m)
		if cands[0] != 1 || cands[len(cands)-1] != m {
			t.Fatalf("m=%d: grid spans [%d, %d], want [1, %d]", m, cands[0], cands[len(cands)-1], m)
		}
		for i := 1; i < len(cands); i++ {
			g0, g1 := cands[i-1], cands[i]
			if g1 <= g0 {
				t.Fatalf("m=%d: grid not strictly increasing at %d: %d, %d", m, i, g0, g1)
			}
			if g0 < convWideB && g1 != g0+1 {
				t.Fatalf("m=%d: narrow range must be dense, got %d → %d", m, g0, g1)
			}
			if g0 >= convWideB && g1 != m {
				// Integer step ⌈g/40⌉ keeps the ratio within 1+1/20,
				// which the compressed-total accounting consumes.
				if 20*(g1-g0) > g0 {
					t.Fatalf("m=%d: grid step %d → %d exceeds factor 1+1/20", m, g0, g1)
				}
			}
		}
		// The compressed allotment of every wide candidate must shrink
		// it and stay positive.
		for _, g := range cands {
			if g < convWideB {
				continue
			}
			c := g - (g+convRho-1)/convRho
			if c < 1 || c >= g {
				t.Fatalf("m=%d: compressed %d → %d out of [1, g)", m, g, c)
			}
			if 20*c > 19*g {
				t.Fatalf("m=%d: compressed %d → %d exceeds ⌊g·19/20⌋", m, g, c)
			}
		}
	}
}

// TestScheduleConvEndToEnd: the full Conv run stays within (3/2+ε)·OPT
// on planted instances in both regimes (knapsack m < 32n, wide
// m ≥ 32n).
func TestScheduleConvEndToEnd(t *testing.T) {
	cases := []struct {
		name    string
		m, jobs int
	}{
		{"knapsack-regime", 64, 40}, // m < 32n
		{"wide-regime", 8192, 24},   // m ≥ 32n
		{"boundary", 1280, 40},      // m = 32n exactly
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(0); seed < 6; seed++ {
				pl := moldable.Planted(moldable.PlantedConfig{M: tc.m, D: 100, Seed: seed, MaxJobs: tc.jobs})
				eps := 0.25
				s, rep, err := ScheduleConv(context.Background(), pl.Instance, eps, nil)
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
	in := moldable.Random(moldable.GenConfig{N: 4, M: ConvMinM - 1, Seed: 5})
	_, _, err := ScheduleConv(context.Background(), in, 0.25, nil)
	if !errors.Is(err, scherr.ErrRegime) {
		t.Fatalf("m=%d: err = %v, want ErrRegime", ConvMinM-1, err)
	}
	var re *scherr.RegimeError
	if !errors.As(err, &re) {
		t.Fatalf("err %v does not unwrap to *RegimeError", err)
	}
	if re.MinM != ConvMinM || re.Algorithm != "conv" {
		t.Fatalf("RegimeError %+v, want MinM=%d algo=conv", re, ConvMinM)
	}
	// At the bound itself the algorithm must run.
	in2 := moldable.Random(moldable.GenConfig{N: 4, M: ConvMinM, Seed: 5})
	if _, _, err := ScheduleConv(context.Background(), in2, 0.25, nil); err != nil {
		t.Fatalf("m=%d: %v, want success", ConvMinM, err)
	}
}

// TestScheduleConvScratchReuse: pooled and fresh Conv runs must agree
// placement-for-placement across interleaved shapes and regimes.
func TestScheduleConvScratchReuse(t *testing.T) {
	ctx := context.Background()
	sc := &Scratch{}
	shapes := []struct{ n, m int }{{40, 64}, {13, 200}, {8, 4096}, {25, 1280}}
	for rep := 0; rep < 3; rep++ {
		for i, sh := range shapes {
			in := moldable.Random(moldable.GenConfig{N: sh.n, M: sh.m, Seed: uint64(10 + i)})
			want, wantRep, err1 := ScheduleConv(context.Background(), in, 0.25, nil)
			got, gotRep, err2 := ScheduleConv(ctx, in, 0.25, sc)
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

// refConvWideAllot is convWide.Try's allotment loop as it stood with
// its own grid bisection (before it used the seeded γ rounded up onto
// the grid), kept verbatim up to returning the allotment.
func refConvWideAllot(in *moldable.Instance, cands []int, d moldable.Time) ([]int, bool) {
	t := (1 + 0.25) * d
	allot := make([]int, 0, in.N())
	used := 0
	for _, j := range in.Jobs {
		var g int
		switch {
		case j.Time(1) <= t:
			g = 1
		case j.Time(in.M) > t:
			return nil, false
		default:
			lo, hi := 0, len(cands)-1
			for hi-lo > 1 {
				mid := int(uint(lo+hi) >> 1)
				if j.Time(cands[mid]) <= t {
					hi = mid
				} else {
					lo = mid
				}
			}
			g = cands[hi]
		}
		if g >= convWideB {
			g -= (g + convRho - 1) / convRho
		}
		used += g
		if used > in.M {
			return nil, false
		}
		allot = append(allot, g)
	}
	return allot, true
}

// TestConvWideReferenceEquivalence: convWide.Try accepts exactly when
// the grid-bisecting reference does, with the same allotment, at
// targets around the grid estimate on both sides of acceptance.
func TestConvWideReferenceEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 0))
	for _, m := range []int{40, 41, 1 << 10, 1 << 16, 1 << 20, 1 << 30} {
		for it := 0; it < 8; it++ {
			in := moldable.Random(moldable.GenConfig{N: 1 + rng.IntN(48), M: m, Seed: rng.Uint64()})
			sc := &Scratch{}
			cands := sc.convCands(m)
			omega := lt.EstimateGrid(in, cands, &sc.LT).Omega
			algo := &convWide{In: in, Scratch: sc}
			for _, f := range []float64{0.3, 0.6, 0.9, 1, 1.1, 1.5, 2} {
				d := omega * f
				want, wantOK := refConvWideAllot(in, cands, d)
				s, ok := algo.Try(d)
				if ok != wantOK {
					t.Fatalf("m=%d it=%d d=%v: accept %v, reference %v", m, it, d, ok, wantOK)
				}
				if !ok {
					continue
				}
				for k, p := range s.Placements {
					if p.Job != k || p.Procs != want[k] {
						t.Fatalf("m=%d it=%d d=%v: job %d gets %d processors, reference %d", m, it, d, p.Job, p.Procs, want[k])
					}
				}
			}
		}
	}
}
