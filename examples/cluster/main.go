// Cluster: scheduling a job batch on a very large machine (m = 2^20
// processors, the compact-encoding regime the paper targets). The FPTAS
// of Theorem 2 runs in O(n log²m) oracle calls — the demo counts them —
// while any O(nm) algorithm would touch a million entries per job.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/moldable"
)

func main() {
	const m = 1 << 20 // a full exascale partition
	rng := rand.New(rand.NewPCG(2024, 1))

	// A realistic HPC batch: a few huge, well-scaling simulations, many
	// medium Amdahl-limited solvers, and a tail of sequential pre/post
	// processing tasks.
	base := &moldable.Instance{M: m}
	for i := 0; i < 8; i++ { // huge simulations, near-perfect scaling
		base.Jobs = append(base.Jobs, moldable.Power{W: 5e5 * (1 + rng.Float64()), Alpha: 0.97})
	}
	for i := 0; i < 40; i++ { // mid-size Amdahl solvers
		w := 1e4 * (1 + 9*rng.Float64())
		f := 0.01 + 0.05*rng.Float64()
		base.Jobs = append(base.Jobs, moldable.Amdahl{Seq: w * f, Par: w * (1 - f)})
	}
	for i := 0; i < 16; i++ { // pre/post processing
		base.Jobs = append(base.Jobs, moldable.Sequential{T: 50 + 200*rng.Float64()})
	}

	in, oracleCalls := moldable.Instrument(base)

	start := time.Now()
	est := lt.Estimate(in)
	fmt.Printf("Ludwig–Tiwari estimate: ω=%.1f (OPT within [ω, 2ω]) in %v, %d oracle calls\n",
		est.Omega, time.Since(start), oracleCalls())

	for _, eps := range []float64{0.5, 0.1, 0.02} {
		inCounted, calls := moldable.Instrument(base)
		start = time.Now()
		s, rep, err := core.ScheduleCtx(context.Background(), inCounted, core.Options{Algorithm: core.FPTAS, Eps: eps, Validate: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("FPTAS ε=%-5g makespan=%.1f (guarantee %.3g×OPT)  %8v  %7d oracle calls (n=%d, m=2^20)\n",
			eps, s.Makespan(), rep.Guarantee, time.Since(start), calls(), inCounted.N())
	}

	// The classical 2-approximation as the baseline.
	s2, est2 := lt.TwoApprox(in)
	fmt.Printf("LT 2-approx  makespan=%.1f (vs FPTAS above; ω=%.1f)\n", s2.Makespan(), est2.Omega)
}
