// Simulate: execute computed schedules on the discrete-event simulator
// and study their robustness to execution-time noise — a planner/runtime
// view of the paper's algorithms. Two studies:
//
//  1. a dense mixed workload planned by the §4.3.3 algorithm, executed
//     exactly and under ±20% noise with a work-conserving runtime;
//  2. a zero-idle (planted-optimum) plan under the same noise with a
//     rigid reservation runtime, which visibly oversubscribes.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/sim"
)

func main() {
	in := moldable.Random(moldable.GenConfig{
		N: 120, M: 64, Seed: 99, MinWork: 50, MaxWork: 800})
	s, rep, err := core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.2, Validate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("study 1 — plan: %d jobs on %d procs, makespan %.2f (%s, guarantee %.2f)\n",
		in.N(), in.M, rep.Makespan, rep.Algorithm, rep.Guarantee)

	exact, err := sim.Run(in, s, sim.Options{Dispatch: sim.Static})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-32s makespan=%8.2f  util=%.3f  peak=%3d/%d\n",
		"static, exact durations:", exact.Makespan, exact.Utilization, exact.PeakProcs, in.M)

	noiseFor := func(seed uint64) func(int, moldable.Time) moldable.Time {
		rng := rand.New(rand.NewPCG(seed, 7))
		return func(job int, d moldable.Time) moldable.Time {
			return d * (0.8 + 0.4*rng.Float64()) // ±20%
		}
	}
	wc, err := sim.Run(in, s, sim.Options{Dispatch: sim.WorkConserving, Noise: noiseFor(1)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-32s makespan=%8.2f  util=%.3f  peak=%3d/%d  stretch=%.3f\n\n",
		"work-conserving, ±20% noise:", wc.Makespan, wc.Utilization, wc.PeakProcs, in.M, wc.Stretch)

	// Study 2: a maximally fragile plan — the planted-optimum packing has
	// zero idle time, so any inflation must oversubscribe a rigid runtime.
	pl := moldable.Planted(moldable.PlantedConfig{M: 64, D: 500, Seed: 5, MaxJobs: 60})
	plan := schedule.New(pl.Instance.M)
	for i := range pl.Instance.Jobs {
		plan.Add(i, pl.Allot[i], pl.Start[i], pl.Instance.Jobs[i].Time(pl.Allot[i]))
	}
	fmt.Printf("study 2 — zero-idle planted plan: %d jobs, makespan %.2f, utilization 1.000\n",
		pl.Instance.N(), pl.OPT)
	static, err := sim.Run(pl.Instance, plan, sim.Options{Dispatch: sim.Static, Noise: noiseFor(2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-32s makespan=%8.2f  peak=%3d/%d  OVERFLOW=%d procs\n",
		"static (rigid), ±20% noise:", static.Makespan, static.PeakProcs, pl.Instance.M, static.MaxOverflow)
	wc2, err := sim.Run(pl.Instance, plan, sim.Options{Dispatch: sim.WorkConserving, Noise: noiseFor(2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-32s makespan=%8.2f  peak=%3d/%d  stretch=%.3f\n",
		"work-conserving, same noise:", wc2.Makespan, wc2.PeakProcs, pl.Instance.M, wc2.Stretch)

	fmt.Println("\nreading: the rigid runtime oversubscribes a tight plan under noise, while the")
	fmt.Println("work-conserving replay of the same plan stays feasible and degrades smoothly.")
}
