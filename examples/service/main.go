// Service: driving the batch scheduling service (internal/service, the
// engine behind cmd/moldschedd) with the mixed workload a long-running
// scheduler daemon actually sees:
//
//  1. a cold burst of distinct instances (pure throughput, nothing to
//     share; their closed-form oracles run without a memo, so the
//     oracle counters stay at 0),
//  2. hot repeats of a handful of popular instances (the result cache
//     answers without scheduling),
//  3. ε-sweeps over one expensive table-backed instance (different
//     options defeat the result cache, but the shared oracle memo turns
//     the non-compact O(p)-per-probe oracle into table lookups).
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

	// Phase 3 — ε-sweep over an expensive oracle: EnvelopeTable re-scans
	// its raw measurements on every probe (the non-compact encoding), so
	// uncached probes cost O(p). The sweep changes ε each call — no
	// result-cache hits — yet every call after the first runs against
	// the already-warm oracle memo.
	heavy := &moldable.Instance{M: 4096}
	for i := 0; i < 96; i++ {
		heavy.Jobs = append(heavy.Jobs,
			moldable.EnvelopeTable{Raw: moldable.SmallTable(rng, 4096, 1000).T})
	}
	phase("ε-sweep on a table-backed instance (8 calls)", svc, func() int {
		for i := 0; i < 8; i++ {
			eps := 0.5 / float64(i+1)
			r := svc.DoCtx(ctx, heavy, core.Options{Algorithm: core.Linear, Eps: eps})
			must(r.Err)
			fmt.Printf("    ε=%-6.3f makespan=%-9.4g dual-iters=%d\n",
				eps, r.Report.Makespan, r.Report.Iterations)
		}
		return 8
	})
}

// phase runs fn, then prints throughput and the stats delta.
func phase(name string, svc *service.Scheduler, fn func() int) {
	before := svc.Stats()
	start := time.Now()
	n := fn()
	elapsed := time.Since(start)
	st := svc.Stats()
	fmt.Printf("%s:\n", name)
	fmt.Printf("    %d instances in %v (%.0f instances/sec)\n",
		n, elapsed.Round(time.Microsecond), float64(n)/elapsed.Seconds())
	fmt.Printf("    result-cache hits +%d, oracle hits +%d, oracle misses +%d\n",
		st.ResultHits-before.ResultHits,
		st.OracleHits-before.OracleHits,
		st.OracleMisses-before.OracleMisses)
	fmt.Printf("    retained: %d memoized instances, %d cached results\n\n",
		st.MemoizedInstances, st.CachedResults)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
