package repro_test

import (
	"context"
	"reflect"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/moldable"
)

// TestScheduleStreamPooledScratchIdentical is the buffer-reuse
// acceptance test of ISSUE 3: concurrent ScheduleStream over ≥ 64
// instances — every worker reusing its pooled scratch across many
// submissions — must produce byte-identical schedules to the unpooled
// single-call path. Run under -race (CI does) this also proves the
// per-worker scratch keying is data-race free.
func TestScheduleStreamPooledScratchIdentical(t *testing.T) {
	const n = 80
	ins := make([]*moldable.Instance, n)
	for i := range ins {
		// Vary shape and regime so FPTAS, Linear, and knapsack paths
		// all run, and workers see interleaved shapes that would
		// expose stale scratch state.
		cfg := moldable.GenConfig{N: 8 + i%29, M: 16 << (i % 9), Seed: uint64(1000 + i)}
		ins[i] = moldable.Random(cfg)
	}
	opt := core.Options{Algorithm: core.Auto, Eps: 0.25}

	// Unpooled reference: fresh buffers per call, no service stack.
	want := make([]*repro.ScheduleResult, n)
	for i, in := range ins {
		s, _, err := core.ScheduleCtx(context.Background(), in, opt)
		if err != nil {
			t.Fatalf("unpooled #%d: %v", i, err)
		}
		want[i] = s
	}

	// Pooled: the full client stack (sharded pool, per-worker scratch).
	// The result cache is disabled so every submission really computes
	// on a worker's scratch; three passes make every worker reuse its
	// buffers many times.
	c := repro.New(repro.WithEps(0.25), repro.WithoutResultCache())
	defer c.Close()
	for pass := 0; pass < 3; pass++ {
		seen := 0
		for i, r := range c.ScheduleStream(context.Background(), ins) {
			if r.Err != nil {
				t.Fatalf("pass %d #%d: %v", pass, i, r.Err)
			}
			if r.Schedule.M != want[i].M || !reflect.DeepEqual(r.Schedule.Placements, want[i].Placements) {
				t.Fatalf("pass %d #%d: pooled schedule differs from unpooled\npooled:   %v\nunpooled: %v",
					pass, i, r.Schedule, want[i])
			}
			seen++
		}
		if seen != n {
			t.Fatalf("pass %d: stream yielded %d/%d results", pass, seen, n)
		}
	}
}

// TestScheduleStreamConvPooledScratchIdentical extends the pooled
// byte-identity guard to the Conv algorithm: concurrent conv-pinned
// streaming over instances spanning both conv regimes (the convolution
// knapsack at m < 16n, the FPTAS dual at m ≥ 16n) must match the
// unpooled single-call path placement for placement. Under -race (CI)
// this also proves the convolution engine's per-worker scratch arenas
// are data-race free.
func TestScheduleStreamConvPooledScratchIdentical(t *testing.T) {
	const n = 64
	ins := make([]*moldable.Instance, n)
	for i := range ins {
		// M from 64 to 8192 — always ≥ ConvMinM, both regimes hit.
		cfg := moldable.GenConfig{N: 4 + i%23, M: 64 << (i % 8), Seed: uint64(7000 + i)}
		ins[i] = moldable.Random(cfg)
	}
	opt := core.Options{Algorithm: core.Conv, Eps: 0.25}

	want := make([]*repro.ScheduleResult, n)
	for i, in := range ins {
		s, _, err := core.ScheduleCtx(context.Background(), in, opt)
		if err != nil {
			t.Fatalf("unpooled #%d: %v", i, err)
		}
		want[i] = s
	}

	c := repro.New(repro.WithEps(0.25), repro.WithAlgorithm(repro.Conv),
		repro.WithoutResultCache())
	defer c.Close()
	for pass := 0; pass < 3; pass++ {
		seen := 0
		for i, r := range c.ScheduleStream(context.Background(), ins) {
			if r.Err != nil {
				t.Fatalf("pass %d #%d: %v", pass, i, r.Err)
			}
			if r.Schedule.M != want[i].M || !reflect.DeepEqual(r.Schedule.Placements, want[i].Placements) {
				t.Fatalf("pass %d #%d: pooled conv schedule differs from unpooled", pass, i)
			}
			seen++
		}
		if seen != n {
			t.Fatalf("pass %d: stream yielded %d/%d results", pass, seen, n)
		}
	}
}

// TestServiceResultsStableAfterScratchReuse guards the ownership
// contract at the service boundary: results handed out (and cached)
// must be clones, not views into a worker's scratch, so later
// submissions on the same worker must not mutate them.
func TestServiceResultsStableAfterScratchReuse(t *testing.T) {
	c := repro.New(repro.WithEps(0.25))
	defer c.Close()
	ctx := context.Background()
	first := moldable.Random(moldable.GenConfig{N: 30, M: 128, Seed: 5})
	s1, _, err := c.Schedule(ctx, first)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := s1.Clone()
	// Hammer the pool with different instances; if s1 aliased a
	// worker's scratch, some placement would change underneath us.
	for i := 0; i < 64; i++ {
		in := moldable.Random(moldable.GenConfig{N: 20 + i%17, M: 64 << (i % 5), Seed: uint64(i)})
		if _, _, err := c.Schedule(ctx, in, repro.WithAlgorithm(repro.Linear)); err != nil {
			t.Fatalf("#%d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(s1.Placements, snapshot.Placements) {
		t.Fatal("cached/returned schedule mutated by later submissions: scratch leaked past the service boundary")
	}
}
