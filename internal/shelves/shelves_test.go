package shelves

import (
	"math/rand/v2"
	"testing"

	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

func TestPartitionClassification(t *testing.T) {
	// m=8, d=10: small ⇔ t(1) ≤ 5; mandatory ⇔ t(m) > 5
	in := &moldable.Instance{M: 8, Jobs: []moldable.Job{
		moldable.Sequential{T: 4},       // small
		moldable.Sequential{T: 6},       // big, t(8)=6 > 5 ⇒ mandatory
		moldable.PerfectSpeedup{W: 24},  // big (t(1)=24), t(8)=3 ≤ 5 ⇒ optional
		moldable.PerfectSpeedup{W: 4.8}, // small (t(1)=4.8)
	}}
	p := &Partition{}
	if !Compute(p, in, 10) {
		t.Fatal("partition rejected feasible τ")
	}
	if len(p.Small) != 2 || len(p.Big) != 2 || len(p.Mand) != 1 || len(p.Opt) != 1 {
		t.Fatalf("classification wrong: small=%v big=%v mand=%v opt=%v", p.Small, p.Big, p.Mand, p.Opt)
	}
	if p.Mand[0] != 1 || p.Opt[0] != 2 {
		t.Fatalf("wrong jobs classified: mand=%v opt=%v", p.Mand, p.Opt)
	}
	if p.WSmall != 4+4.8 {
		t.Errorf("WSmall = %v, want 8.8", p.WSmall)
	}
	// γ values: job 2 (W=24): γ(10) = 3 (24/3=8 ≤ 10), γ(5) = 5
	if p.G1[2] != 3 || p.G2[2] != 5 {
		t.Errorf("γ wrong: G1=%d G2=%d, want 3, 5", p.G1[2], p.G2[2])
	}
}

func TestPartitionRejectsInfeasibleTau(t *testing.T) {
	in := &moldable.Instance{M: 2, Jobs: []moldable.Job{moldable.Sequential{T: 10}}}
	if Compute(&Partition{}, in, 5) {
		t.Error("τ=5 accepted although t(m)=10 > 5")
	}
}

func TestProfitNonNegative(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 0))
	for it := 0; it < 100; it++ {
		in := moldable.Random(moldable.GenConfig{N: 20, M: 64, Seed: rng.Uint64()})
		d := in.LowerBound() * (1 + rng.Float64())
		p := &Partition{}
		if !Compute(p, in, d) {
			continue
		}
		for _, j := range p.Opt {
			if v := p.Profit(in, j); v < 0 {
				t.Fatalf("negative profit %v for job %d", v, j)
			}
		}
	}
}

// build is Build into a fresh Result with fresh buffers.
func build(in *moldable.Instance, tau moldable.Time, shelf1 []int, opt Options) (*Result, bool) {
	res := &Result{}
	ok := Build(res, in, tau, shelf1, opt, nil)
	return res, ok
}

// buildAll selects shelf 1 with the dense knapsack — exactly the MRT
// recipe — and builds. Used to exercise Build's internals directly.
func buildAll(t *testing.T, in *moldable.Instance, d moldable.Time, opt Options) (*Result, bool) {
	t.Helper()
	part := &Partition{}
	if !Compute(part, in, d) {
		return nil, false
	}
	capacity := in.M - part.MandSize()
	if capacity < 0 {
		return nil, false
	}
	var items []knapsack.Item
	for _, j := range part.Opt {
		items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
	}
	sel, _ := knapsack.SolveDense(items, capacity, nil)
	return build(in, d, sel, opt)
}

// TestBuildAcceptsAtOPT is the dual-soundness test at the shelf level:
// Build with an optimal knapsack must accept τ = 3/2·... any τ ≥ OPT
// (planted), and the result must be valid with makespan ≤ 3τ/2.
func TestBuildAcceptsAtOPT(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 24, D: 40, Seed: seed, MaxJobs: 18})
		in := pl.Instance
		for _, f := range []float64{1, 1.2, 2} {
			d := pl.OPT * f
			res, ok := buildAll(t, in, d, Options{})
			if !ok {
				t.Fatalf("seed %d f=%v: Build rejected d ≥ OPT (%s)", seed, f, res.Reason)
			}
			if err := schedule.Validate(in, res.Schedule, schedule.Options{RequireConcrete: true}); err != nil {
				t.Fatalf("seed %d f=%v: %v", seed, f, err)
			}
			if mk := res.Schedule.Makespan(); mk > 1.5*d*(1+1e-9) {
				t.Fatalf("seed %d f=%v: makespan %v > 3d/2 = %v", seed, f, mk, 1.5*d)
			}
		}
	}
}

// TestBuildBucketsVariant: same but with the §4.3.3 bucketed rules; the
// makespan may exceed 3τ/2 by (ratio−1)·τ.
func TestBuildBucketsVariant(t *testing.T) {
	ratio := 1.05
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		pl := moldable.Planted(moldable.PlantedConfig{M: 24, D: 40, Seed: seed, MaxJobs: 18})
		in := pl.Instance
		d := pl.OPT
		res, ok := buildAll(t, in, d, Options{Buckets: true, BucketRatio: ratio})
		if !ok {
			t.Fatalf("seed %d: Build rejected d = OPT (%s)", seed, res.Reason)
		}
		if err := schedule.Validate(in, res.Schedule, schedule.Options{RequireConcrete: true}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if mk := res.Schedule.Makespan(); mk > (1.5+(ratio-1))*d*(1+1e-9) {
			t.Fatalf("seed %d: makespan %v > (3/2+slack)d", seed, mk)
		}
	}
}

// TestBuildRejectsTightTau: for τ clearly below OPT the work bound must
// trigger (planted instances have zero idle at OPT).
func TestBuildRejectsTightTau(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 16, D: 40, Seed: 3, MaxJobs: 12})
	if res, ok := buildAll(t, pl.Instance, pl.OPT*0.5, Options{}); ok {
		// accepting d < OPT is allowed ONLY with a valid ≤ 3d/2 schedule
		if err := schedule.Validate(pl.Instance, res.Schedule, schedule.Options{}); err != nil {
			t.Fatalf("accepted τ < OPT with invalid schedule: %v", err)
		}
		if res.Schedule.Makespan() > 1.5*pl.OPT*0.5*(1+1e-9) {
			t.Fatal("accepted τ < OPT with makespan above 3τ/2")
		}
	}
}

func TestBuildRejectsBadBucketRatio(t *testing.T) {
	in := &moldable.Instance{M: 2, Jobs: []moldable.Job{moldable.Sequential{T: 1}}}
	if _, ok := build(in, 2, nil, Options{Buckets: true, BucketRatio: 1}); ok {
		t.Error("BucketRatio=1 accepted")
	}
}

// TestBuildSmallJobsOnly: all-small instances exercise only Lemma 9.
func TestBuildSmallJobsOnly(t *testing.T) {
	in := &moldable.Instance{M: 4}
	for i := 0; i < 16; i++ {
		in.Jobs = append(in.Jobs, moldable.Sequential{T: 1})
	}
	// τ=8: every job small (1 ≤ 4); total work 16 = m·τ/2 fits easily
	res, ok := build(in, 8, nil, Options{})
	if !ok {
		t.Fatalf("rejected: %s", res.Reason)
	}
	if err := schedule.Validate(in, res.Schedule, schedule.Options{RequireConcrete: true}); err != nil {
		t.Fatal(err)
	}
	if mk := res.Schedule.Makespan(); mk > 12 {
		t.Errorf("makespan %v > 3τ/2", mk)
	}
}

// TestBuildWorkBoundRejection: an instance whose small jobs cannot fit
// must be rejected (failure injection for Lemma 9's precondition).
func TestBuildWorkBoundRejection(t *testing.T) {
	in := &moldable.Instance{M: 2}
	for i := 0; i < 10; i++ {
		in.Jobs = append(in.Jobs, moldable.Sequential{T: 1})
	}
	// τ=2: small ⇔ t(1) ≤ 1 ✓ all small; W_S = 10 > m·τ = 4 ⇒ reject
	res, ok := build(in, 2, nil, Options{})
	if ok {
		t.Fatalf("accepted with W_S=10 > mτ=4 (makespan %v)", res.Schedule.Makespan())
	}
}

func TestTwoShelf(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 12, D: 30, Seed: 9, MaxJobs: 10})
	in := pl.Instance
	part := &Partition{}
	if !Compute(part, in, pl.OPT) {
		t.Fatal("partition rejected OPT")
	}
	// put everything in S2 (empty shelf1): S2 likely overflows m
	sched, _, feasible := TwoShelf(in, pl.OPT, nil)
	if sched == nil {
		t.Fatal("no two-shelf schedule")
	}
	var p2 int
	for _, j := range part.Big {
		if len(part.Mand) == 0 || !contains(part.Mand, j) {
			p2 += part.G2[j]
		}
	}
	if p2 > in.M && feasible {
		t.Error("overflowing two-shelf schedule reported feasible")
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// TestBuildRandomized hammers Build with random instances and τ around
// the lower bound; every acceptance must be a valid ≤ 3τ/2(+slack)
// schedule, regardless of whether τ ≥ OPT.
func TestBuildRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0))
	for it := 0; it < 300; it++ {
		in := moldable.Random(moldable.GenConfig{
			N: 1 + rng.IntN(30), M: 1 + rng.IntN(64), Seed: rng.Uint64()})
		lb := in.LowerBound()
		tau := lb * (0.5 + 2*rng.Float64())
		for _, opt := range []Options{{}, {Buckets: true, BucketRatio: 1.08}} {
			res, ok := build(in, tau, nil, opt) // empty shelf-1 proposal
			if !ok {
				continue
			}
			if err := schedule.Validate(in, res.Schedule, schedule.Options{RequireConcrete: true}); err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
			slack := 0.0
			if opt.Buckets {
				slack = opt.BucketRatio - 1
			}
			if mk := res.Schedule.Makespan(); mk > (1.5+slack)*tau*(1+1e-9) {
				t.Fatalf("it %d: makespan %v > (1.5+%v)τ = %v", it, mk, slack, (1.5+slack)*tau)
			}
		}
	}
}
