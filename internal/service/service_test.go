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

// envelopeInstance is testInstance(seed) re-encoded as envelope jobs
// sampled over 1..M: the same oracle values behind table lookups.
func envelopeInstance(seed uint64) *moldable.Instance {
	in := testInstance(seed)
	for i, j := range in.Jobs {
		raw := make([]moldable.Time, in.M)
		for p := range raw {
			raw[p] = j.Time(p + 1)
		}
		in.Jobs[i] = moldable.Envelope(raw)
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
	// Other options are another result, even for the same instance.
	if r3 := s.DoCtx(context.Background(), testInstance(2), core.Options{Algorithm: core.Linear, Eps: 0.5}); r3.Err != nil || r3.Cached {
		t.Errorf("same instance under another ε: err %v, cached %v; want a fresh result", r3.Err, r3.Cached)
	}
	st := s.Stats()
	if st.ResultHits != 1 || st.Submitted != 3 || st.Completed != 3 {
		t.Errorf("stats = %+v, want 1 hit over 3 submissions", st)
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
	id := s.SubmitCtx(context.Background(), testInstance(4), core.Options{Algorithm: core.LT2}, false).ID
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
	s := New(Config{NoResultCache: true})
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
	if st := s.Stats(); st.ResultHits != 0 || st.CachedResults != 0 {
		t.Errorf("NoResultCache still cached: %+v", st)
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
	if st := s.Stats(); st.CachedResults != 0 {
		t.Errorf("uncacheable instance left cache residue: %+v", st)
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
	tickets := make([]*Ticket, 10)
	for i := range tickets {
		tickets[i] = s.SubmitCtx(context.Background(), testInstance(uint64(60+i)), opt, false)
	}
	for _, tk := range tickets {
		<-tk.Done()
	}
	if _, done, k := s.Poll(tickets[len(tickets)-1].ID); !k || !done {
		t.Fatal("newest ticket must survive the cap")
	}
	known := 0
	for _, tk := range tickets[:len(tickets)-1] {
		if _, _, k := s.Poll(tk.ID); k {
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
	if st.ResultHits == 0 {
		t.Errorf("concurrent duplicates produced no sharing: %+v", st)
	}
}

// TestEnvelopeMatchesClosedForm: an instance of closed-form jobs and
// its envelope re-encoding (the same oracle values as table lookups)
// get placement-for-placement the same schedule.
func TestEnvelopeMatchesClosedForm(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	closed := s.DoCtx(context.Background(), testInstance(7), opt)
	env := s.DoCtx(context.Background(), envelopeInstance(7), opt)
	if closed.Err != nil || env.Err != nil {
		t.Fatal(closed.Err, env.Err)
	}
	if !reflect.DeepEqual(closed.Schedule, env.Schedule) {
		t.Errorf("closed-form schedule differs from the envelope schedule:\n got %+v\nwant %+v", closed.Schedule, env.Schedule)
	}
}

// TestEnvelopeSharesTableKey: a wire "envelope" instance and the
// "table" instance of its running minima are one instance to the
// service. Both get the same makespan, and the second submission is a
// result-cache hit.
func TestEnvelopeSharesTableKey(t *testing.T) {
	envelope, err := moldable.UnmarshalInstance([]byte(`{"m":8,"jobs":[` +
		`{"type":"envelope","times":[12,6,7,3,3.5,2.5,9,2.25]},` +
		`{"type":"envelope","times":[20,11,10.5,12,5]},{"type":"amdahl","seq":1,"par":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	table, err := moldable.UnmarshalInstance([]byte(`{"m":8,"jobs":[` +
		`{"type":"table","times":[12,6,6,3,3,2.5,2.5,2.25]},` +
		`{"type":"table","times":[20,11,10.5,10.5,5]},{"type":"amdahl","seq":1,"par":9}]}`))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	want, _, err := core.ScheduleCtx(context.Background(), table, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := core.ScheduleCtx(context.Background(), envelope, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan() != want.Makespan() {
		t.Fatalf("envelope makespan %v, table makespan %v", got.Makespan(), want.Makespan())
	}
	s := New(Config{})
	defer s.Close()
	r1 := s.DoCtx(context.Background(), envelope, opt)
	r2 := s.DoCtx(context.Background(), table, opt)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	if r1.Schedule.Makespan() != want.Makespan() || r2.Schedule.Makespan() != want.Makespan() {
		t.Errorf("served makespans %v and %v, want %v", r1.Schedule.Makespan(), r2.Schedule.Makespan(), want.Makespan())
	}
	if !r2.Cached {
		t.Error("the table twin of an envelope instance missed the result cache")
	}
}
