package repro_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/moldable"
)

// cancelJob wraps a job's oracle so that every probe after its first
// skip cancels a context: a deterministic mid-batch cancellation fuse.
// With skip set to the probes that validation makes, the fuse fires
// when a worker schedules the job, not when the client validates it.
type cancelJob struct {
	moldable.Job
	cancel context.CancelFunc
	skip   int64
	calls  *atomic.Int64
}

func (c cancelJob) Time(p int) moldable.Time {
	if c.calls.Add(1) > c.skip {
		c.cancel()
	}
	return c.Job.Time(p)
}

func testInstances(n int) []*moldable.Instance {
	ins := make([]*moldable.Instance, n)
	for i := range ins {
		ins[i] = moldable.Random(moldable.GenConfig{N: 16, M: 256, Seed: uint64(i + 1)})
	}
	return ins
}

func TestClientScheduleRoundTrip(t *testing.T) {
	c := repro.New(repro.WithEps(0.25), repro.WithAlgorithm(repro.Linear))
	defer c.Close()
	ctx := context.Background()
	in := testInstances(1)[0]
	if err := c.Validate(ctx, in); err != nil {
		t.Fatal(err)
	}
	s, rep, err := c.Schedule(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSchedule(ctx, in, s); err != nil {
		t.Fatal(err)
	}
	if rep.Guarantee <= 1 || rep.Makespan <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
	est, err := c.Estimate(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if est.Omega <= 0 || s.Makespan() > 2*est.Omega*(1+1e-9) {
		t.Errorf("estimate ω=%v inconsistent with makespan %v", est.Omega, s.Makespan())
	}
}

// The facade must round-trip the common workflow without touching
// internal packages beyond moldable.
func TestFacadeSchedule(t *testing.T) {
	c := repro.New(repro.WithEps(0.25))
	defer c.Close()
	ctx := context.Background()
	in := &moldable.Instance{
		M: 64,
		Jobs: []moldable.Job{
			moldable.Amdahl{Seq: 2, Par: 98},
			moldable.PerfectSpeedup{W: 512},
			moldable.Sequential{T: 7},
		},
	}
	s, rep, err := c.Schedule(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSchedule(ctx, in, s); err != nil {
		t.Fatal(err)
	}
	if rep.Guarantee <= 1 || rep.Makespan <= 0 {
		t.Errorf("report incomplete: %+v", rep)
	}
}

func TestFacadeEstimateAndTwoApprox(t *testing.T) {
	c := repro.New()
	defer c.Close()
	ctx := context.Background()
	pl := moldable.Planted(moldable.PlantedConfig{M: 32, D: 50, Seed: 3, MaxJobs: 12})
	est, err := c.Estimate(ctx, pl.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if est.Omega > pl.OPT*(1+1e-9) {
		t.Errorf("ω=%v exceeds OPT=%v", est.Omega, pl.OPT)
	}
	s, rep, err := c.Schedule(ctx, pl.Instance, repro.WithAlgorithm(repro.LT2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateSchedule(ctx, pl.Instance, s); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() > 2*rep.Omega*(1+1e-9) {
		t.Errorf("2-approx makespan %v > 2ω", s.Makespan())
	}
}

// TestFacadeAlgorithmConstants: every re-exported algorithm constant
// selects a working algorithm through Client.Schedule.
func TestFacadeAlgorithmConstants(t *testing.T) {
	c := repro.New(repro.WithEps(0.5))
	defer c.Close()
	ctx := context.Background()
	in := &moldable.Instance{M: 8, Jobs: []moldable.Job{moldable.Sequential{T: 1}}}
	for _, a := range []repro.Algorithm{repro.LT2, repro.MRT, repro.Alg1, repro.Alg3, repro.Linear} {
		_, rep, err := c.Schedule(ctx, in, repro.WithAlgorithm(a))
		if err != nil {
			t.Errorf("%v: %v", a, err)
			continue
		}
		if rep.Algorithm != a {
			t.Errorf("%v: ran %v", a, rep.Algorithm)
		}
	}
}

func TestFacadePTAS(t *testing.T) {
	pl := moldable.Planted(moldable.PlantedConfig{M: 1 << 12, D: 30, Seed: 4, MaxJobs: 8})
	s, _, err := repro.PTAS(context.Background(), pl.Instance, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan() > 1.5*pl.OPT*(1+1e-9) {
		t.Errorf("PTAS ratio %.3f", s.Makespan()/pl.OPT)
	}
}

// TestClientPerCallOptions: per-call options override client defaults
// without mutating them.
func TestClientPerCallOptions(t *testing.T) {
	c := repro.New(repro.WithAlgorithm(repro.Linear), repro.WithEps(0.5))
	defer c.Close()
	ctx := context.Background()
	in := testInstances(1)[0]
	_, rep, err := c.Schedule(ctx, in, repro.WithAlgorithm(repro.LT2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != repro.LT2 {
		t.Errorf("per-call algorithm ignored: ran %v", rep.Algorithm)
	}
	_, rep, err = c.Schedule(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Algorithm != repro.Linear {
		t.Errorf("client default clobbered by per-call option: ran %v", rep.Algorithm)
	}
}

func TestClientTypedErrors(t *testing.T) {
	c := repro.New()
	defer c.Close()
	ctx := context.Background()
	in := testInstances(1)[0]

	if _, _, err := c.Schedule(ctx, in, repro.WithEps(1.5)); !errors.Is(err, repro.ErrBadEps) {
		t.Errorf("eps=1.5: %v, want ErrBadEps", err)
	}

	small := moldable.Random(moldable.GenConfig{N: 64, M: 8, Seed: 3})
	_, _, err := c.Schedule(ctx, small, repro.WithAlgorithm(repro.FPTAS), repro.WithEps(0.5))
	if !errors.Is(err, repro.ErrRegime) {
		t.Fatalf("out-of-regime FPTAS: %v, want ErrRegime", err)
	}
	var re *repro.RegimeError
	if !errors.As(err, &re) || re.MinM <= re.M {
		t.Errorf("regime error lacks the violated bound: %v", err)
	}

	bad := &moldable.Instance{M: 64, Jobs: []moldable.Job{
		moldable.Table{T: []moldable.Time{1, 5, 9}}, // time increases
	}}
	if err := c.Validate(ctx, bad); !errors.Is(err, repro.ErrNotMonotone) {
		t.Errorf("non-monotone instance: %v, want ErrNotMonotone", err)
	}

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := c.Validate(dead, in); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("canceled Validate: %v, want ErrCanceled", err)
	}
	if _, err := c.Estimate(dead, in); !errors.Is(err, repro.ErrCanceled) {
		t.Errorf("canceled Estimate: %v, want ErrCanceled", err)
	}
}

// TestClientScheduleStream consumes a full stream: every index arrives
// exactly once, results match the instances.
func TestClientScheduleStream(t *testing.T) {
	c := repro.New(repro.WithEps(0.25), repro.WithAlgorithm(repro.Linear))
	defer c.Close()
	const n = 32
	ins := testInstances(n)
	seen := make([]bool, n)
	for i, r := range c.ScheduleStream(context.Background(), ins) {
		if seen[i] {
			t.Fatalf("index %d yielded twice", i)
		}
		seen[i] = true
		if r.Err != nil {
			t.Errorf("instance %d: %v", i, r.Err)
			continue
		}
		if err := c.ValidateSchedule(context.Background(), ins[i], r.Schedule); err != nil {
			t.Errorf("instance %d: invalid schedule: %v", i, err)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("index %d never yielded", i)
		}
	}
}

// TestClientScheduleStreamCancel is the acceptance test of the redesign:
// canceling a stream over ≥ 64 instances stops new work, yields
// ErrCanceled (unwrapping to context.Canceled) for every unstarted
// instance while keeping finished results, and leaks no goroutines
// after Close.
func TestClientScheduleStreamCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	// One worker serializes the batch in submission order; instance
	// fuse's oracle cancels the context at its first probe after
	// validation, so instances beyond it are provably unstarted when the
	// cancel lands.
	c := repro.New(repro.WithWorkers(1), repro.WithEps(0.25), repro.WithAlgorithm(repro.Linear))
	const n = 96
	const fuse = 5
	ins := testInstances(n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe := cancelJob{Job: ins[fuse].Jobs[0], cancel: func() {}, calls: new(atomic.Int64)}
	if err := c.Validate(ctx, &moldable.Instance{M: ins[fuse].M, Jobs: []moldable.Job{probe}}); err != nil {
		t.Fatal(err)
	}
	ins[fuse].Jobs[0] = cancelJob{Job: ins[fuse].Jobs[0], cancel: cancel, skip: probe.calls.Load(), calls: new(atomic.Int64)}

	var done, canceled int
	yielded := 0
	for i, r := range c.ScheduleStream(ctx, ins) {
		yielded++
		switch {
		case r.Err == nil:
			if r.Schedule == nil {
				t.Errorf("instance %d: success without schedule", i)
			}
			done++
		case errors.Is(r.Err, repro.ErrCanceled):
			if !errors.Is(r.Err, context.Canceled) {
				t.Errorf("instance %d: ErrCanceled does not unwrap to context.Canceled", i)
			}
			canceled++
		default:
			t.Errorf("instance %d: unexpected error %v", i, r.Err)
		}
	}
	if yielded != n {
		t.Fatalf("stream yielded %d of %d pairs", yielded, n)
	}
	if done == 0 {
		t.Error("no instance finished before the cancel")
	}
	if canceled == 0 {
		t.Error("no instance reported ErrCanceled")
	}
	// "Stops issuing new work": only instances submitted before the fuse
	// (plus the fuse itself, had it squeaked through) may complete.
	if done > fuse+1 {
		t.Errorf("%d instances completed, want ≤ %d: new work kept starting after cancel", done, fuse+1)
	}
	if done+canceled != n {
		t.Errorf("done=%d + canceled=%d ≠ %d", done, canceled, n)
	}

	c.Close()
	// The stream's collector goroutines drain into a buffered channel
	// and exit; give the runtime a moment, then require no leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after Close", before, after)
	}
}

// TestClientStreamEarlyBreak: breaking out of the stream must not leak
// goroutines or deadlock Close.
func TestClientStreamEarlyBreak(t *testing.T) {
	before := runtime.NumGoroutine()
	c := repro.New(repro.WithWorkers(2), repro.WithEps(0.25), repro.WithAlgorithm(repro.Linear))
	ins := testInstances(24)
	got := 0
	for range c.ScheduleStream(context.Background(), ins) {
		got++
		if got == 3 {
			break
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked after early break: %d before, %d after", before, after)
	}
}

// TestClientCacheAcrossCalls: the second identical submission is served
// from the result cache.
func TestClientCacheAcrossCalls(t *testing.T) {
	c := repro.New(repro.WithEps(0.25), repro.WithAlgorithm(repro.Linear))
	defer c.Close()
	ctx := context.Background()
	in := testInstances(1)[0]
	if _, _, err := c.Schedule(ctx, in); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Schedule(ctx, in); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResultHits == 0 {
		t.Errorf("no result-cache hit after identical submissions: %+v", st)
	}
}
