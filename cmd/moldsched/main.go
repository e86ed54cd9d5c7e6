// Command moldsched schedules a moldable-job instance (JSON, see
// internal/moldable's wire format) and prints the schedule, a report,
// and optionally an ASCII Gantt chart.
//
// Usage:
//
//	moldsched -in instance.json -algo linear -eps 0.1 -gantt
//	geninstance -n 20 -m 64 | moldsched -algo auto
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/sim"
)

func main() {
	var (
		inPath  = flag.String("in", "-", "instance JSON path ('-' for stdin)")
		algoStr = flag.String("algo", "auto", "algorithm: auto|lt2|mrt|alg1|alg3|linear|fptas|conv")
		eps     = flag.Float64("eps", 0.1, "accuracy ε ∈ (0,1]")
		gantt   = flag.Bool("gantt", false, "render an ASCII Gantt chart")
		width   = flag.Int("width", 100, "gantt width in characters")
		quiet   = flag.Bool("q", false, "only print the makespan")
		cert    = flag.Bool("cert", false, "emit and re-verify the §2 certificate (allotment + order)")
		simFlag = flag.Bool("sim", false, "execute the schedule on the discrete-event simulator")
		svgPath = flag.String("svg", "", "write the schedule as SVG to this path")
		trace   = flag.Bool("trace", false, "print the process's recent scheduling decision traces after the run (docs/OBSERVABILITY.md)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("moldsched: ")

	// ^C cancels the run cleanly: the dual search stops at its next
	// probe and the process reports the interruption instead of dying
	// mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Tag the run so -trace can show which decisions this invocation
	// drove (the ring is process-global; the id separates them).
	ctx = obs.WithTraceID(ctx, "cli")

	// Parse the algorithm before reading the instance: a typo in -algo
	// (the error enumerates the valid names, case-insensitively) should
	// not cost the user a full instance upload from stdin.
	algo, err := core.ParseAlgorithm(*algoStr)
	if err != nil {
		log.Fatalf("-algo: %v", err)
	}

	var in *moldable.Instance
	if *inPath == "-" {
		in, err = moldable.ReadInstance(os.Stdin)
	} else {
		f, ferr := os.Open(*inPath)
		if ferr != nil {
			log.Fatal(ferr)
		}
		defer f.Close()
		in, err = moldable.ReadInstance(f)
	}
	if err != nil {
		log.Fatalf("reading instance: %v", err)
	}
	if err := in.ValidateCtx(ctx, 256); err != nil {
		if errors.Is(err, scherr.ErrCanceled) {
			log.Fatal("interrupted")
		}
		log.Fatalf("invalid instance: %v", err)
	}
	s, rep, err := core.ScheduleCtx(ctx, in, core.Options{Algorithm: algo, Eps: *eps, Validate: true})
	if err != nil {
		if errors.Is(err, scherr.ErrCanceled) {
			log.Fatal("interrupted")
		}
		log.Fatal(err)
	}
	if *quiet {
		fmt.Printf("%g\n", s.Makespan())
		return
	}
	fmt.Printf("instance:   %s\n", moldable.Describe(in))
	fmt.Printf("algorithm:  %s (ε=%g, guarantee %.4g)\n", rep.Algorithm, rep.Eps, rep.Guarantee)
	fmt.Printf("makespan:   %.6g\n", rep.Makespan)
	fmt.Printf("lowerbound: %.6g  (ratio ≤ %.4f)\n", rep.LowerBound, rep.Ratio)
	fmt.Printf("dual iters: %d, elapsed %v\n", rep.Iterations, rep.Elapsed)
	if *gantt {
		fmt.Println()
		fmt.Print(schedule.Gantt(s, *width))
	}
	if *cert {
		c, err := certify.FromSchedule(s, in.N())
		if err != nil {
			log.Fatal(err)
		}
		if _, err := certify.Verify(in, s.Makespan(), c); err != nil {
			log.Fatalf("certificate failed to verify: %v", err)
		}
		fmt.Printf("certificate (%d bits): allot=%v order=%v — verified ✓\n",
			certify.Bits(in.N(), in.M), c.Allot, c.Order)
	}
	if *simFlag {
		met, err := sim.Run(in, s, sim.Options{Dispatch: sim.Static})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("simulated:  makespan=%.6g utilization=%.3f peak=%d/%d\n",
			met.Makespan, met.Utilization, met.PeakProcs, in.M)
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := schedule.SVG(f, s, 1000, 500); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("svg:        %s\n", *svgPath)
	}
	if *trace {
		printTraces()
	}
}

// printTraces renders this process's last 32 decision traces, oldest
// first: every ScheduleCtx above records into the process's obs ring.
func printTraces() {
	evs := obs.SnapshotTraces(32)
	fmt.Printf("\ndecision traces (%d recorded, oldest first):\n", len(evs))
	for _, e := range evs {
		line := fmt.Sprintf("  [%s/%s] algo=%s n=%d m=%d eps=%g probes=%d elapsed=%v makespan=%.6g omega=%.6g",
			e.Source, e.TID, e.Algo, e.N, e.M, e.Eps, e.Probes, time.Duration(e.Elapsed), e.Makespan, e.Omega)
		if e.Code != "" {
			line += " code=" + e.Code
		}
		fmt.Println(line)
	}
}
