package service

import (
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

func testInstance(seed uint64) *moldable.Instance {
	return moldable.Random(moldable.GenConfig{N: 24, M: 512, Seed: seed})
}

// envelopeInstance is testInstance(seed) re-encoded as EnvelopeTable
// jobs sampled over 1..M: the same oracle values behind the O(p)
// oracle the memo exists for. Closed-form instances bypass the memo
// (moldable.NeedsMemo), so tests of memo behaviour use these.
func envelopeInstance(seed uint64) *moldable.Instance {
	in := testInstance(seed)
	for i, j := range in.Jobs {
		raw := make([]moldable.Time, in.M)
		for p := range raw {
			raw[p] = j.Time(p + 1)
		}
		in.Jobs[i] = moldable.EnvelopeTable{Raw: raw}
	}
	return in
}

func TestDoMatchesCore(t *testing.T) {
	in := testInstance(1)
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	want, _, err := core.ScheduleCtx(context.Background(), in, opt)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	r := s.DoCtx(context.Background(), in, opt)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if got := r.Schedule.Makespan(); got != want.Makespan() {
		t.Fatalf("service makespan %v, core makespan %v", got, want.Makespan())
	}
	if err := schedule.Validate(in, r.Schedule, schedule.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestResultCacheHit(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	// Structurally equal but distinct instances must share one cache line.
	r1 := s.DoCtx(context.Background(), testInstance(2), opt)
	r2 := s.DoCtx(context.Background(), testInstance(2), opt)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Cached {
		t.Error("first submission reported Cached")
	}
	if !r2.Cached {
		t.Error("repeated submission missed the result cache")
	}
	if r1.Schedule.Makespan() != r2.Schedule.Makespan() {
		t.Error("cached result differs from computed result")
	}
	st := s.Stats()
	if st.ResultHits != 1 || st.Submitted != 2 || st.Completed != 2 {
		t.Errorf("stats = %+v, want 1 hit over 2 submissions", st)
	}
}

// TestMemoSharedAcrossOptions re-schedules one instance under different
// ε: result keys differ (no cache hit) but the oracle memo is shared,
// so the second run must produce hits.
func TestMemoSharedAcrossOptions(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	in := envelopeInstance(3)
	if r := s.DoCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.5}); r.Err != nil {
		t.Fatal(r.Err)
	}
	before := s.Stats()
	if r := s.DoCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.25}); r.Err != nil {
		t.Fatal(r.Err)
	}
	st := s.Stats()
	if st.ResultHits != 0 {
		t.Errorf("different options must not share results (hits=%d)", st.ResultHits)
	}
	if st.MemoizedInstances != 1 {
		t.Errorf("MemoizedInstances = %d, want 1", st.MemoizedInstances)
	}
	if st.OracleHits <= before.OracleHits {
		t.Errorf("second run added no oracle hits (%d → %d)", before.OracleHits, st.OracleHits)
	}
}

func TestSubmitWaitPoll(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	if _, ok := s.Wait(999); ok {
		t.Error("Wait(unknown) returned ok")
	}
	if _, _, known := s.Poll(999); known {
		t.Error("Poll(unknown) returned known")
	}
	id := s.SubmitCtx(context.Background(), testInstance(4), core.Options{Algorithm: core.LT2})
	for {
		res, done, known := s.Poll(id)
		if !known {
			t.Fatal("ticket vanished before collection")
		}
		if done {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			break
		}
	}
	if _, _, known := s.Poll(id); known {
		t.Error("collected ticket must be released")
	}
}

func TestErrorNotCached(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	// FPTAS outside its regime fails deterministically.
	bad := moldable.Random(moldable.GenConfig{N: 64, M: 8, Seed: 5})
	opt := core.Options{Algorithm: core.FPTAS, Eps: 0.5}
	r1 := s.DoCtx(context.Background(), bad, opt)
	r2 := s.DoCtx(context.Background(), bad, opt)
	if r1.Err == nil || r2.Err == nil {
		t.Fatal("expected FPTAS regime errors")
	}
	if r2.Cached {
		t.Error("errors must not be served from the result cache")
	}
	if st := s.Stats(); st.Errors != 2 || st.CachedResults != 0 {
		t.Errorf("stats = %+v, want 2 errors and nothing cached", st)
	}
}

func TestDisabledCaches(t *testing.T) {
	s := New(Config{NoMemoize: true, NoResultCache: true})
	defer s.Close()
	in := testInstance(6)
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	r1, r2 := s.DoCtx(context.Background(), in, opt), s.DoCtx(context.Background(), in, opt)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Cached {
		t.Error("NoResultCache still served a cached result")
	}
	st := s.Stats()
	if st.OracleHits != 0 || st.OracleMisses != 0 || st.MemoizedInstances != 0 {
		t.Errorf("NoMemoize still memoized: %+v", st)
	}
}

// oddJob has no canonical encoding: submissions must bypass the caches
// but still schedule correctly.
type oddJob struct{ w moldable.Time }

func (o oddJob) Time(p int) moldable.Time { return o.w / moldable.Time(p) }

func TestUncacheableInstance(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	in := &moldable.Instance{M: 64, Jobs: []moldable.Job{oddJob{w: 100}, oddJob{w: 50}}}
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	r1, r2 := s.DoCtx(context.Background(), in, opt), s.DoCtx(context.Background(), in, opt)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r2.Cached {
		t.Error("uncacheable instance got a cache hit")
	}
	st := s.Stats()
	if st.CachedResults != 0 || st.MemoizedInstances != 0 {
		t.Errorf("uncacheable instance left cache residue: %+v", st)
	}
	if st.OracleMisses == 0 {
		t.Error("per-submission memo stats were not folded into Stats")
	}
}

func TestDoBatchOrder(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ins := make([]*moldable.Instance, 16)
	for i := range ins {
		ins[i] = testInstance(uint64(100 + i%4)) // duplicates included
	}
	out := s.DoBatchCtx(context.Background(), ins, core.Options{Algorithm: core.Linear, Eps: 0.25})
	for i, r := range out {
		if r.Err != nil {
			t.Fatalf("instance %d: %v", i, r.Err)
		}
		want, _, _ := core.ScheduleCtx(context.Background(), ins[i], core.Options{Algorithm: core.Linear, Eps: 0.25})
		if r.Schedule.Makespan() != want.Makespan() {
			t.Fatalf("instance %d: makespan %v, want %v", i, r.Schedule.Makespan(), want.Makespan())
		}
	}
	if st := s.Stats(); st.ResultHits == 0 {
		t.Error("duplicate-heavy batch produced no result-cache hits")
	}
}

// TestDoBatchErrorPropagation mixes schedulable instances with one that
// must fail (FPTAS forced outside its m ≥ 16n/ε regime): the failure
// lands in its own Result and the neighbours still succeed.
func TestDoBatchErrorPropagation(t *testing.T) {
	s := New(Config{Workers: 3})
	defer s.Close()
	good := moldable.Random(moldable.GenConfig{N: 8, M: 4096, Seed: 1})
	bad := moldable.Random(moldable.GenConfig{N: 64, M: 8, Seed: 2}) // m ≪ 16n/ε
	ins := []*moldable.Instance{good, bad, good}
	out := s.DoBatchCtx(context.Background(), ins, core.Options{Algorithm: core.FPTAS, Eps: 0.5})
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil {
			t.Errorf("instance %d: unexpected error %v", i, out[i].Err)
		}
		if out[i].Schedule == nil || out[i].Report == nil {
			t.Errorf("instance %d: missing schedule or report", i)
		} else if err := schedule.Validate(good, out[i].Schedule, schedule.Options{}); err != nil {
			t.Errorf("instance %d: invalid schedule: %v", i, err)
		}
	}
	if !errors.Is(out[1].Err, scherr.ErrRegime) {
		t.Errorf("instance 1: err = %v, want the FPTAS regime error", out[1].Err)
	}
	if out[1].Schedule != nil {
		t.Error("instance 1: failed instance must not carry a schedule")
	}
}

// TestDoBatchDefaultWorkers pins the documented Config contract: any
// Workers ≤ 0 (zero or negative) selects GOMAXPROCS — the batch must
// run normally, not panic or serialize into an error.
func TestDoBatchDefaultWorkers(t *testing.T) {
	ins := make([]*moldable.Instance, 8)
	for i := range ins {
		ins[i] = moldable.Random(moldable.GenConfig{N: 6, M: 64, Seed: uint64(i + 1)})
	}
	for _, workers := range []int{0, -1, -7} {
		s := New(Config{Workers: workers})
		if got, want := len(s.queues), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("workers=%d: %d worker queues, want GOMAXPROCS = %d", workers, got, want)
		}
		out := s.DoBatchCtx(context.Background(), ins, core.Options{Algorithm: core.Linear, Eps: 0.5})
		s.Close()
		if len(out) != len(ins) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(out), len(ins))
		}
		for i, r := range out {
			if r.Err != nil || r.Schedule == nil {
				t.Errorf("workers=%d instance %d: err=%v schedule=%v", workers, i, r.Err, r.Schedule)
			}
		}
	}
}

// TestMemoEvictionKeepsStatsMonotone overflows a tiny memo registry and
// checks that (a) retention respects both the entry cap and the byte
// budget and (b) the cumulative oracle counters never decrease when
// entries are evicted (the moldschedd stats contract).
func TestMemoEvictionKeepsStatsMonotone(t *testing.T) {
	s := New(Config{MemoCap: 2, MemoBudgetMB: 1})
	defer s.Close()
	opt := core.Options{Algorithm: core.Linear, Eps: 0.5}
	var lastMisses int64
	for i := 0; i < 6; i++ {
		if r := s.DoCtx(context.Background(), envelopeInstance(uint64(40+i)), opt); r.Err != nil {
			t.Fatal(r.Err)
		}
		st := s.Stats()
		if st.OracleMisses < lastMisses {
			t.Fatalf("OracleMisses decreased after eviction: %d → %d", lastMisses, st.OracleMisses)
		}
		if st.OracleMisses <= lastMisses {
			t.Fatalf("fresh instance %d produced no new misses", i)
		}
		lastMisses = st.OracleMisses
		if st.MemoizedInstances > 2 {
			t.Fatalf("registry holds %d entries, cap is 2", st.MemoizedInstances)
		}
	}
}

// TestTicketCapBoundsUncollected fire-and-forget submits past the
// ticket cap: the oldest uncollected tickets must be dropped (reported
// unknown) while the newest remain collectable. One worker makes
// completion order submission order, so the last ticket submitted is
// the last to retire; with several workers it may complete early and
// age out behind slower key-mates.
func TestTicketCapBoundsUncollected(t *testing.T) {
	s := New(Config{TicketCap: 4, Workers: 1})
	defer s.Close()
	opt := core.Options{Algorithm: core.LT2}
	ids := make([]uint64, 10)
	for i := range ids {
		ids[i] = s.SubmitCtx(context.Background(), testInstance(uint64(60+i)), opt)
	}
	// A ticket the cap already dropped had completed; wait on the rest.
	for _, id := range ids {
		if done, ok := s.Done(id); ok {
			<-done
		}
	}
	if _, done, k := s.Poll(ids[len(ids)-1]); !k || !done {
		t.Fatal("newest ticket must survive the cap")
	}
	known := 0
	for _, id := range ids[:len(ids)-1] {
		if _, _, k := s.Poll(id); k {
			known++
		}
	}
	if known > 4 { // at most TicketCap uncollected tickets retained
		t.Fatalf("%d uncollected tickets retained, cap is 4", known)
	}
}

// TestConcurrentSubmitters hammers one scheduler from many goroutines
// with a mix of repeated and fresh instances; run with -race (CI does).
func TestConcurrentSubmitters(t *testing.T) {
	s := New(Config{Workers: 8})
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			for i := 0; i < 30; i++ {
				in := envelopeInstance(uint64(rng.IntN(5))) // heavy duplication across goroutines
				eps := []float64{0.5, 0.25}[rng.IntN(2)]
				r := s.DoCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: eps})
				if r.Err != nil {
					errs <- r.Err
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Completed != 240 || st.Pending != 0 {
		t.Fatalf("stats = %+v, want 240 completed", st)
	}
	if st.ResultHits == 0 || st.OracleHits == 0 {
		t.Errorf("concurrent duplicates produced no sharing: %+v", st)
	}
}

// TestClosedFormBypassesMemo: an all-closed-form instance never enters
// the memo registry and touches no oracle counter, and its schedule is
// placement-for-placement the one NoMemoize produces — and the one the
// memoized path produces for the same oracle values behind
// EnvelopeTable jobs.
func TestClosedFormBypassesMemo(t *testing.T) {
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	run := func(cfg Config, in *moldable.Instance) (*schedule.Schedule, Stats) {
		t.Helper()
		s := New(cfg)
		defer s.Close()
		r := s.DoCtx(context.Background(), in, opt)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		return r.Schedule, s.Stats()
	}
	got, st := run(Config{}, testInstance(7))
	if st.MemoizedInstances != 0 || st.OracleHits != 0 || st.OracleMisses != 0 {
		t.Errorf("closed-form instance was memoized: %+v", st)
	}
	bare, _ := run(Config{NoMemoize: true}, testInstance(7))
	memoized, st := run(Config{}, envelopeInstance(7))
	if st.MemoizedInstances != 1 || st.OracleMisses == 0 {
		t.Errorf("envelope instance was not memoized: %+v", st)
	}
	for name, want := range map[string]*schedule.Schedule{"NoMemoize": bare, "memoized envelope": memoized} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("closed-form schedule differs from the %s schedule:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestMemoCostCountsWrappedJobs: the registry charges one memo table
// per job MemoizeInstance actually wrapped, so the MemoBudgetMB
// accounting ignores the closed-form jobs of a mixed instance.
func TestMemoCostCountsWrappedJobs(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	in := testInstance(8)
	env := envelopeInstance(8)
	for i := 0; i < len(in.Jobs); i += 3 {
		in.Jobs[i] = env.Jobs[i]
	}
	if r := s.DoCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.25}); r.Err != nil {
		t.Fatal(r.Err)
	}
	s.memos.mu.Lock()
	got := s.memos.bytes
	s.memos.mu.Unlock()
	wrapped := (len(in.Jobs) + 2) / 3
	if want := moldable.MemoFootprint(in.M) * int64(wrapped); got != want {
		t.Errorf("registry charged %d bytes, want %d for %d memoized jobs", got, want, wrapped)
	}
}

// TestMemoRegistryConcurrentGet: racing first sights of one key build
// their twins outside the lock, and exactly one twin is retained and
// handed to every caller.
func TestMemoRegistryConcurrentGet(t *testing.T) {
	r := newMemoRegistry(4, 1<<30)
	in := envelopeInstance(9)
	twins := make([]*moldable.Instance, 8)
	var wg sync.WaitGroup
	for g := range twins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			twins[g] = r.get(42, in)
		}()
	}
	wg.Wait()
	for g, tw := range twins {
		if tw != twins[0] {
			t.Fatalf("caller %d got a different twin than caller 0", g)
		}
	}
	r.mu.Lock()
	n, bytes := len(r.m), r.bytes
	r.mu.Unlock()
	if want := memoCost(twins[0]); n != 1 || bytes != want {
		t.Errorf("registry holds %d entries / %d bytes, want 1 / %d", n, bytes, want)
	}
}
