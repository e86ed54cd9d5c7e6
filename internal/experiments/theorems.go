package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fptas"
	"repro/internal/moldable"
)

// Theorem2Config scales the FPTAS experiment.
type Theorem2Config struct {
	N      int
	MSweep []int
	Eps    []float64
	Seed   uint64
	Reps   int
}

// DefaultTheorem2 sweeps m geometrically up to 2^30.
func DefaultTheorem2() Theorem2Config {
	return Theorem2Config{
		N:      64,
		MSweep: []int{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30},
		Eps:    []float64{0.5, 0.1},
		Seed:   7,
		Reps:   3,
	}
}

// Theorem2 demonstrates the FPTAS of §3: its running time and oracle
// calls grow polylogarithmically in m (the paper bound is
// O(n log²m(logm + log 1/ε))). Each row reports the full algorithm
// (estimation + dual search), the oracle-call count, and the calls
// normalized by n·log²m — a roughly flat last column is the headline
// result of Theorem 2.
func Theorem2(ctx context.Context, w io.Writer, cfg Theorem2Config) {
	fmt.Fprintf(w, "Theorem 2 reproduction — FPTAS for m ≥ 8n/ε, time polylog in m\n")
	for _, eps := range cfg.Eps {
		rows := make([][]string, 0, len(cfg.MSweep))
		var sizes []float64
		var times []time.Duration
		for _, m := range cfg.MSweep {
			if !fptas.Applicable(cfg.N, m, eps/2) {
				continue
			}
			base := moldable.Random(moldable.GenConfig{N: cfg.N, M: m, Seed: cfg.Seed})
			in, calls := moldable.Instrument(base)
			var mk, ratio float64
			med := medianTime(cfg.Reps, func() {
				s, _, err := core.ScheduleCtx(ctx, in, core.Options{Algorithm: core.FPTAS, Eps: eps})
				if err != nil {
					panic(err)
				}
				mk = s.Makespan()
			})
			ratio = mk / base.LowerBound()
			logm := logb(m)
			perCall := float64(calls()) / float64(cfg.Reps) / (float64(cfg.N) * logm * logm)
			sizes = append(sizes, float64(m))
			times = append(times, med)
			rows = append(rows, []string{
				fmt.Sprintf("2^%d", intLog2(m)),
				fmtDur(med),
				fmt.Sprintf("%.0f", float64(calls())/float64(cfg.Reps)),
				fmt.Sprintf("%.2f", perCall),
				fmt.Sprintf("%.3f", ratio),
			})
		}
		rows = append(rows, []string{"m-exponent", fmt.Sprintf("%.3f", fitExponent(sizes, times)), "", "", ""})
		writeTable(w, fmt.Sprintf("FPTAS scaling in m (n=%d, ε=%g)", cfg.N, eps),
			[]string{"m", "time", "oracle calls", "calls/(n·log²m)", "makespan/LB"}, rows)
	}
	fmt.Fprintf(w, "expected shape: time m-exponent ≈ 0 (polylog), calls/(n·log²m) roughly flat\n")
}

// Theorem3Config scales the approximation-quality experiment.
type Theorem3Config struct {
	M     int
	D     moldable.Time
	Jobs  int
	Eps   []float64
	Seeds []uint64
}

// DefaultTheorem3 checks three accuracies over ten planted instances.
func DefaultTheorem3() Theorem3Config {
	return Theorem3Config{
		M: 64, D: 100, Jobs: 40,
		Eps:   []float64{0.5, 0.25, 0.1},
		Seeds: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
	}
}

// Theorem3 verifies the (3/2+ε) guarantee of all three improved
// algorithms (plus baselines) against planted-optimum instances: the
// reported worst ratio must stay below 1.5+ε.
func Theorem3(ctx context.Context, w io.Writer, cfg Theorem3Config) {
	fmt.Fprintf(w, "Theorem 3 reproduction — measured makespan/OPT on planted-optimum instances\n")
	algos := []core.Algorithm{core.LT2, core.MRT, core.Alg1, core.Alg3, core.Linear}
	for _, eps := range cfg.Eps {
		rows := make([][]string, 0, len(algos))
		for _, a := range algos {
			worst, sum := 0.0, 0.0
			for _, seed := range cfg.Seeds {
				pl := moldable.Planted(moldable.PlantedConfig{M: cfg.M, D: cfg.D, Seed: seed, MaxJobs: cfg.Jobs})
				s, _, err := core.ScheduleCtx(ctx, pl.Instance, core.Options{Algorithm: a, Eps: eps})
				if err != nil {
					panic(err)
				}
				r := float64(s.Makespan() / pl.OPT)
				sum += r
				if r > worst {
					worst = r
				}
			}
			bound := 1.5 + eps
			if a == core.LT2 {
				bound = 2
			}
			status := "OK"
			if worst > bound+1e-9 {
				status = "VIOLATED"
			}
			rows = append(rows, []string{
				a.String(),
				fmt.Sprintf("%.4f", sum/float64(len(cfg.Seeds))),
				fmt.Sprintf("%.4f", worst),
				fmt.Sprintf("%.4f", bound),
				status,
			})
		}
		writeTable(w, fmt.Sprintf("approximation quality, ε=%g (m=%d, %d planted instances)",
			eps, cfg.M, len(cfg.Seeds)),
			[]string{"algorithm", "mean ratio", "worst ratio", "proven bound", "status"}, rows)
	}
}

func intLog2(m int) int {
	l := 0
	for m > 1 {
		m >>= 1
		l++
	}
	return l
}

func logb(m int) float64 { return float64(intLog2(m)) }
