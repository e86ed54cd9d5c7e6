// Service: driving the batch scheduling service (internal/service, the
// engine behind cmd/moldschedd) with the mixed workload a long-running
// scheduler daemon actually sees:
//
//  1. a cold burst of distinct instances (pure throughput, nothing to
//     share),
//  2. hot repeats of a handful of popular instances (the result cache
//     answers without scheduling),
//  3. an ε-sweep over one table-backed instance, run twice (each ε is
//     its own result-cache key, so the first sweep computes and the
//     second is answered from the cache).
//
// Each phase prints throughput and the service counters that explain it.
package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/service"
)

func main() {
	ctx := context.Background()
	svc := service.New(service.Config{})
	defer svc.Close()
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}

	// Phase 1 — cold burst: 64 distinct instances, all misses.
	cold := make([]*moldable.Instance, 64)
	for i := range cold {
		cold[i] = moldable.Random(moldable.GenConfig{N: 32, M: 1 << 12, Seed: uint64(i)})
	}
	phase("cold burst (64 distinct instances)", svc, func() int {
		for _, r := range svc.DoBatchCtx(ctx, cold, opt) {
			must(r.Err)
		}
		return len(cold)
	})

	// Phase 2 — hot repeats: 256 submissions drawn from 4 popular
	// instances. After one computation each, the result cache answers.
	rng := rand.New(rand.NewPCG(7, 0))
	hot := make([]*moldable.Instance, 256)
	for i := range hot {
		hot[i] = moldable.Random(moldable.GenConfig{N: 48, M: 1 << 12, Seed: uint64(rng.IntN(4))})
	}
	phase("hot repeats (256 submissions, 4 distinct)", svc, func() int {
		for _, r := range svc.DoBatchCtx(ctx, hot, opt) {
			must(r.Err)
		}
		return len(hot)
	})

	// Phase 3 — ε-sweep over a table-backed instance, twice. The jobs
	// are raw per-processor-count measurements, folded into their
	// running minima once (moldable.Envelope, the wire type "envelope"),
	// so each probe is one table lookup. ε is part of the result key:
	// the first sweep computes every call, the repeat is answered from
	// the result cache.
	heavy := &moldable.Instance{M: 4096}
	for i := 0; i < 96; i++ {
		heavy.Jobs = append(heavy.Jobs, moldable.Envelope(moldable.SmallTable(rng, 4096, 1000).T))
	}
	for _, pass := range []string{"first", "repeated"} {
		phase("ε-sweep on a table-backed instance, "+pass+" (4 calls)", svc, func() int {
			for i := 0; i < 4; i++ {
				eps := 0.5 / float64(i+1)
				r := svc.DoCtx(ctx, heavy, core.Options{Algorithm: core.Linear, Eps: eps})
				must(r.Err)
				fmt.Printf("    ε=%-6.3f makespan=%-9.4g dual-iters=%d cached=%v\n",
					eps, r.Report.Makespan, r.Report.Iterations, r.Cached)
			}
			return 4
		})
	}
}

// phase runs fn, then prints throughput and the stats delta.
func phase(name string, svc *service.Scheduler, fn func() int) {
	fmt.Printf("%s:\n", name)
	before := svc.Stats()
	start := time.Now()
	n := fn()
	elapsed := time.Since(start)
	st := svc.Stats()
	fmt.Printf("    %d instances in %v (%.0f instances/sec)\n",
		n, elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds())
	fmt.Printf("    result-cache hits +%d, %d cached results retained\n\n",
		st.ResultHits-before.ResultHits, st.CachedResults)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
