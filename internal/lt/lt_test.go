package lt

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
	"repro/internal/schedule"
)

func randomInstance(rng *rand.Rand, n, m int) *moldable.Instance {
	in := &moldable.Instance{M: m}
	for i := 0; i < n; i++ {
		switch rng.IntN(4) {
		case 0:
			w := 1 + 100*rng.Float64()
			in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: w * rng.Float64() * 0.5, Par: w})
		case 1:
			in.Jobs = append(in.Jobs, moldable.Power{W: 1 + 100*rng.Float64(), Alpha: rng.Float64()})
		case 2:
			in.Jobs = append(in.Jobs, moldable.Sequential{T: 1 + 20*rng.Float64()})
		default:
			in.Jobs = append(in.Jobs, moldable.SmallTable(rng, m, 50))
		}
	}
	return in
}

// TestEstimateMatchesBruteForce: the matrix search must find the exact
// breakpoint optimum.
func TestEstimateMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for it := 0; it < 300; it++ {
		n, m := 1+rng.IntN(10), 1+rng.IntN(40)
		in := randomInstance(rng, n, m)
		got := Estimate(in)
		want := EstimateBrute(in)
		if math.Abs(got.Omega-want.Omega) > 1e-9*(1+want.Omega) {
			t.Fatalf("it %d (n=%d m=%d): Estimate ω=%v, brute ω=%v", it, n, m, got.Omega, want.Omega)
		}
	}
}

// TestOmegaIsLowerBound: ω ≤ OPT on planted-optimum instances.
func TestOmegaIsLowerBound(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 32, D: 64, Seed: seed, MaxJobs: 20})
		res := Estimate(pl.Instance)
		if res.Omega > pl.OPT*(1+1e-9) {
			t.Errorf("seed %d: ω=%v > OPT=%v", seed, res.Omega, pl.OPT)
		}
	}
}

// TestOmegaWithinFactor2: the allotment certifies OPT ≤ 2ω via list
// scheduling; combined with ω ≤ OPT the estimation ratio is 2.
func TestOmegaWithinFactor2(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 0))
	for it := 0; it < 200; it++ {
		in := randomInstance(rng, 1+rng.IntN(25), 1+rng.IntN(64))
		sched, res := TwoApprox(in)
		if err := schedule.Validate(in, sched, schedule.Options{}); err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if mk := sched.Makespan(); mk > 2*res.Omega*(1+1e-9) {
			t.Fatalf("it %d: makespan %v > 2ω = %v", it, mk, 2*res.Omega)
		}
	}
}

// TestEquation2Typo documents the deviation described in DESIGN.md: with
// the paper's literal Eq. (2) (min instead of max), OPT ≤ 2ω fails. A
// single job with no speedup on m ≥ 3 machines has
// min(W/m, t) = t/m < t/2 = OPT/2.
func TestEquation2Typo(t *testing.T) {
	in := &moldable.Instance{M: 4, Jobs: []moldable.Job{moldable.Sequential{T: 8}}}
	// literal Eq. (2) value at the only sensible allotment a=1:
	minForm := math.Min(8.0/4.0, 8.0) // = 2
	opt := 8.0                        // the job simply runs
	if opt <= 2*minForm {
		t.Fatalf("counterexample broken: OPT=%v, 2·min-form=%v", opt, 2*minForm)
	}
	// the max form we implement is a valid estimate
	res := Estimate(in)
	if res.Omega > opt || opt > 2*res.Omega {
		t.Fatalf("max-form estimator broken: ω=%v, OPT=%v", res.Omega, opt)
	}
}

// TestEstimateLogarithmicOracle: oracle calls per job must be polylog m.
func TestEstimateLogarithmicOracle(t *testing.T) {
	m := 1 << 24
	base := &moldable.Instance{M: m}
	for i := 0; i < 32; i++ {
		base.Jobs = append(base.Jobs, moldable.Amdahl{Seq: float64(i + 1), Par: float64(100 * (i + 1))})
	}
	in, calls := moldable.Instrument(base)
	Estimate(in)
	perJob := float64(calls()) / 32
	// budget: O(log² m) with a generous constant
	logm := math.Log2(float64(m))
	if perJob > 40*logm*logm {
		t.Errorf("oracle calls per job %.0f exceed O(log²m) budget %v", perJob, 40*logm*logm)
	}
}

func TestEstimateAllotmentAchievesOmega(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 0))
	for it := 0; it < 100; it++ {
		in := randomInstance(rng, 1+rng.IntN(10), 1+rng.IntN(30))
		res := Estimate(in)
		var work, maxT moldable.Time
		for i, j := range in.Jobs {
			if res.Allot[i] < 1 || res.Allot[i] > in.M {
				t.Fatalf("allotment out of range: %d", res.Allot[i])
			}
			work += moldable.Work(j, res.Allot[i])
			if tt := j.Time(res.Allot[i]); tt > maxT {
				maxT = tt
			}
		}
		f := math.Max(work/moldable.Time(in.M), maxT)
		if math.Abs(f-res.Omega) > 1e-9*(1+res.Omega) {
			t.Fatalf("it %d: allotment attains %v, ω=%v", it, f, res.Omega)
		}
	}
}

func TestSingleJobSingleMachine(t *testing.T) {
	in := &moldable.Instance{M: 1, Jobs: []moldable.Job{moldable.Sequential{T: 7}}}
	res := Estimate(in)
	if res.Omega != 7 {
		t.Errorf("ω=%v, want 7", res.Omega)
	}
}

// TestEstimateScratchZeroAlloc: a warm scratch must make the
// estimation allocation-free — it sits on every algorithm's hot path.
func TestEstimateScratchZeroAlloc(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 128, M: 1 << 30, Seed: 1})
	sc := &Scratch{}
	for i := 0; i < 3; i++ {
		EstimateScratch(in, sc)
	}
	if allocs := testing.AllocsPerRun(20, func() { EstimateScratch(in, sc) }); allocs != 0 {
		t.Fatalf("steady-state EstimateScratch allocates %v/op, want 0", allocs)
	}
}

// TestEstimateOracleCalls pins the estimator's oracle work on the
// Random mix at n = 256, m = 2^20: one γ search per job still in play
// per round, the other jobs answering from their brackets. A γ search
// and a t(γ) call for every job in every predicate, and a second γ per
// job in every prune, made 13 994 calls per estimate on average.
func TestEstimateOracleCalls(t *testing.T) {
	const seeds = 8
	var total int64
	for seed := uint64(0); seed < seeds; seed++ {
		in, calls := moldable.Instrument(moldable.Random(moldable.GenConfig{N: 256, M: 1 << 20, Seed: seed}))
		Estimate(in)
		total += calls()
	}
	mean := float64(total) / seeds
	t.Logf("%.0f oracle calls per estimate", mean)
	if mean > 6000 {
		t.Errorf("%.0f oracle calls per estimate at n=256, m=2^20, want ≤ 6000", mean)
	}
}
