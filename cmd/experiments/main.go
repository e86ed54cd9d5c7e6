// Command experiments regenerates every table and figure of the paper
// (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	experiments -all                  # everything, default scales
//	experiments -table1 -quick       # Table 1 only, reduced sweep
//	experiments -fig1 -fig2 -fig3 -fig4
//	experiments -theorem2 -theorem3 -crossover
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every experiment")
		table1   = flag.Bool("table1", false, "Table 1: running-time scaling of the (3/2+ε) duals")
		theorem2 = flag.Bool("theorem2", false, "Theorem 2: FPTAS polylog-in-m scaling")
		theorem3 = flag.Bool("theorem3", false, "Theorem 3: approximation quality on planted instances")
		fig1     = flag.Bool("fig1", false, "Figure 1: 4-Partition reduction schedule")
		fig2     = flag.Bool("fig2", false, "Figure 2: infeasible two-shelf schedule")
		fig3     = flag.Bool("fig3", false, "Figure 3: three-shelf schedule after transformation")
		fig4     = flag.Bool("fig4", false, "Figure 4: adaptive normalization intervals")
		cross    = flag.Bool("crossover", false, "MRT vs §4.3.3 wall-clock crossover in m")
		compare  = flag.Bool("comparison", false, "algorithms vs naive baselines across presets")
		est      = flag.Bool("estimator", false, "Ludwig–Tiwari estimator demo")
		quick    = flag.Bool("quick", false, "reduced sweeps (CI-friendly)")
		seed     = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Parse()
	ctx := context.Background()
	w := os.Stdout
	any := false
	run := func(enabled bool, f func()) {
		if enabled || *all {
			f()
			fmt.Fprintln(w)
			any = true
		}
	}
	run(*fig1, func() { experiments.Fig1(w, 4, *seed) })
	run(*fig2, func() { experiments.Fig2(w, *seed) })
	run(*fig3, func() { experiments.Fig3(w, *seed) })
	run(*fig4, func() { experiments.Fig4(w) })
	run(*est, func() { experiments.EstimatorDemo(w, *seed) })
	run(*compare, func() {
		n, m := 64, 256
		if *quick {
			n, m = 24, 64
		}
		experiments.Comparison(ctx, w, n, m, 0.25, *seed)
	})
	run(*theorem3, func() {
		cfg := experiments.DefaultTheorem3()
		if *quick {
			cfg.Seeds = cfg.Seeds[:3]
			cfg.Eps = cfg.Eps[:2]
		}
		experiments.Theorem3(ctx, w, cfg)
	})
	run(*theorem2, func() {
		cfg := experiments.DefaultTheorem2()
		if *quick {
			cfg.MSweep = cfg.MSweep[:4]
			cfg.Eps = cfg.Eps[:1]
		}
		experiments.Theorem2(ctx, w, cfg)
	})
	run(*table1, func() {
		cfg := experiments.DefaultTable1()
		cfg.Seed = *seed
		if *quick {
			cfg.NSweep = []int{64, 256, 1024}
			cfg.MSweep = []int{1 << 8, 1 << 12, 1 << 16}
			cfg.EpsSweep = []float64{0.4, 0.1}
			cfg.Reps = 1
		}
		experiments.Table1(w, cfg)
	})
	run(*cross, func() {
		sweep := []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18}
		if *quick {
			sweep = sweep[:4]
		}
		experiments.Crossover(w, 256, sweep, 0.25, *seed)
	})
	if !any {
		flag.Usage()
		os.Exit(2)
	}
}
