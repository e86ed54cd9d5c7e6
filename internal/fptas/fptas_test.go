package fptas

import (
	"testing"

	"repro/internal/gamma"
	"repro/internal/moldable"
)

// TestDualAcceptsAtOPT: the (1+ε)-dual must accept every d ≥ OPT when
// m ≥ 8n/ε — the heart of Theorem 2's analysis (Lemmas 4 and 5).
func TestDualAcceptsAtOPT(t *testing.T) {
	eps := 0.5
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		n := 16
		m := int(8*float64(n)/eps) + 5
		pl := moldable.Planted(moldable.PlantedConfig{M: m, D: 50, Seed: seed, MaxJobs: n})
		algo := &Dual{In: pl.Instance, Eps: eps}
		for _, factor := range []float64{1, 1.01, 1.5, 2} {
			d := pl.OPT * factor
			s, ok := algo.Try(d)
			if !ok {
				t.Fatalf("seed %d: dual rejected d = %.3g ≥ OPT = %v", seed, d, pl.OPT)
			}
			if mk := s.Makespan(); mk > (1+eps)*d*(1+1e-9) {
				t.Fatalf("seed %d: makespan %v > (1+ε)d = %v", seed, mk, (1+eps)*d)
			}
		}
	}
}

// TestDualRejectionIsSound: on any instance, if the dual rejects d, then
// no allotment with all processing times ≤ d fits m processors — verify
// directly via γ.
func TestDualRejectionIsSound(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 8, M: 2048, Seed: 11})
	algo := &Dual{In: in, Eps: 0.25}
	lb := in.LowerBound()
	for _, f := range []float64{0.2, 0.5, 0.9} {
		d := lb * f
		if _, ok := algo.Try(d); !ok {
			// verify: Σ γ_j((1+ε)d) > m or some γ undefined
			tt := (1 + algo.Eps) * d
			total := 0
			undef := false
			for _, j := range in.Jobs {
				g, gok := gamma.Gamma(j, in.M, tt)
				if !gok {
					undef = true
					break
				}
				total += g
			}
			if !undef && total <= in.M {
				t.Fatalf("dual rejected d=%v but allotment fits (Σγ=%d ≤ m=%d)", d, total, in.M)
			}
		}
	}
}

func TestApplicable(t *testing.T) {
	if !Applicable(10, 160, 0.5) {
		t.Error("m=160 n=10 eps=0.5 should be applicable (8n/ε = 160)")
	}
	if Applicable(10, 159, 0.5) {
		t.Error("m=159 n=10 eps=0.5 should not be applicable")
	}
}

func TestMinM(t *testing.T) {
	if MinM(10, 0.5) != 320 {
		t.Errorf("MinM(10, 0.5) = %d, want 320", MinM(10, 0.5))
	}
}

// TestLemma5: Σγ_j(d) < m + n whenever d ≥ OPT — the counting lemma at
// the heart of §3.1, checked on planted-optimum instances.
func TestLemma5(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6} {
		n := 20
		m := 64
		pl := moldable.Planted(moldable.PlantedConfig{M: m, D: 100, Seed: seed, MaxJobs: n})
		for _, f := range []float64{1, 1.1, 1.5, 2} {
			total, ok := GammaTotal(pl.Instance, pl.OPT*f)
			if !ok {
				t.Fatalf("seed %d: γ undefined at d ≥ OPT", seed)
			}
			if total >= m+pl.Instance.N() {
				t.Errorf("seed %d f=%v: Σγ = %d ≥ m+n = %d — Lemma 5 violated",
					seed, f, total, m+pl.Instance.N())
			}
		}
	}
}

// TestAllotmentRule2 encodes the §3.1 analysis: at d ≥ OPT with
// m ≥ 8n/ε, the compressed allotment (i) keeps every processing time
// within (1+ε)d and (ii) fits m processors.
func TestAllotmentRule2(t *testing.T) {
	eps := 0.5
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		n := 12
		m := int(8*float64(n)/eps) + 3
		pl := moldable.Planted(moldable.PlantedConfig{M: m, D: 80, Seed: seed, MaxJobs: n})
		in := pl.Instance
		allot, total, ok := AllotmentRule2(in, pl.OPT, eps)
		if !ok {
			t.Fatalf("seed %d: rule 2 undefined at d = OPT", seed)
		}
		if total > m {
			t.Errorf("seed %d: rule-2 allotment uses %d > m = %d processors", seed, total, m)
		}
		for i, j := range in.Jobs {
			if allot[i] < 1 {
				t.Fatalf("seed %d: job %d got %d processors", seed, i, allot[i])
			}
			if tt := j.Time(allot[i]); tt > (1+eps)*pl.OPT*(1+1e-9) {
				t.Errorf("seed %d: job %d time %v > (1+ε)d = %v", seed, i, tt, (1+eps)*pl.OPT)
			}
		}
	}
}

// TestRule1DominatesRule2: the simple rule γ_j((1+ε)d) never uses more
// processors than rule 2 (the paper's final step: "it picks the minimum
// number of allotted processors when we target (1+ε)d").
func TestRule1DominatesRule2(t *testing.T) {
	eps := 0.5
	for _, seed := range []uint64{7, 8, 9} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 256, D: 60, Seed: seed, MaxJobs: 14})
		in := pl.Instance
		d := pl.OPT
		_, total2, ok := AllotmentRule2(in, d, eps)
		if !ok {
			t.Fatal("rule 2 undefined")
		}
		total1 := 0
		for _, j := range in.Jobs {
			g, gok := gamma.Gamma(j, in.M, (1+eps)*d)
			if !gok {
				t.Fatal("γ((1+ε)d) undefined at d = OPT")
			}
			total1 += g
		}
		if total1 > total2 {
			t.Errorf("seed %d: rule 1 uses %d > rule 2's %d processors", seed, total1, total2)
		}
	}
}
