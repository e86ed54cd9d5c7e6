package service

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
)

// orderJob records, on its first oracle call, its index into a shared
// log. The log is unsynchronized on purpose: the race detector then
// fails any test in which two orderJobs run concurrently.
type orderJob struct {
	i   int
	log *[]int
	hit *bool
}

func (o orderJob) Time(p int) moldable.Time {
	if !*o.hit {
		*o.hit = true
		*o.log = append(*o.log, o.i)
	}
	return 8 / moldable.Time(p)
}

// TestSameKeyRunsInSubmissionOrder queues jobs that share one key on a
// multi-worker scheduler: they must run on one worker, one at a time,
// in the order they were queued.
func TestSameKeyRunsInSubmissionOrder(t *testing.T) {
	s := New(Config{Workers: 8})
	defer s.Close()
	const n = 200
	var log []int
	opt := core.Options{Algorithm: core.LT2}
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = &Ticket{ID: uint64(i + 1), done: make(chan struct{})}
		in := &moldable.Instance{M: 4, Jobs: []moldable.Job{orderJob{i: i, log: &log, hit: new(bool)}}}
		s.enqueue(job{ctx: context.Background(), t: tickets[i], in: in, opt: opt, key: 42})
	}
	for i, tk := range tickets {
		<-tk.done
		if tk.res.Err != nil {
			t.Fatalf("job %d: %v", i, tk.res.Err)
		}
	}
	if len(log) != n {
		t.Fatalf("%d jobs called their oracle, want %d", len(log), n)
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("same-key jobs ran out of order: run %d was job %d", i, v)
		}
	}
}

// gateJob blocks every oracle call until gate is closed.
type gateJob struct{ gate chan struct{} }

func (g gateJob) Time(p int) moldable.Time {
	<-g.gate
	return 8 / moldable.Time(p)
}

// TestBurstComputesOnce submits one instance many times to a
// multi-worker scheduler while the instance's worker is held busy: key
// affinity queues every copy behind the first on that worker, so
// exactly one computes and the rest hit the result cache, though other
// workers sit idle.
func TestBurstComputesOnce(t *testing.T) {
	s := New(Config{Workers: 4})
	defer s.Close()
	in := testInstance(7)
	key, _ := s.h.instanceKey(in)
	gate := make(chan struct{})
	blocker := &Ticket{ID: s.nextID.Add(1), done: make(chan struct{})}
	busy := &moldable.Instance{M: 4, Jobs: []moldable.Job{gateJob{gate}}}
	s.enqueue(job{ctx: context.Background(), t: blocker, in: busy, opt: core.Options{Algorithm: core.LT2}, key: key})

	const n = 32
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = s.SubmitCtx(context.Background(), testInstance(7), opt, false).ID
	}
	close(gate)
	for _, id := range ids {
		if r, ok := s.Wait(id); !ok || r.Err != nil {
			t.Fatalf("ticket %d: ok=%v err=%v", id, ok, r.Err)
		}
	}
	if st := s.Stats(); st.ResultHits != n-1 {
		t.Fatalf("ResultHits = %d over a burst of %d, want %d", st.ResultHits, n, n-1)
	}
}

// TestCloseIdempotent closes twice, concurrently: both calls return
// after the queued work has run, and every ticket stays collectable.
func TestCloseIdempotent(t *testing.T) {
	s := New(Config{Workers: 2})
	opt := core.Options{Algorithm: core.LT2}
	ids := make([]uint64, 16)
	for i := range ids {
		ids[i] = s.SubmitCtx(context.Background(), testInstance(uint64(80+i)), opt, false).ID
	}
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
	s.Close()
	for _, id := range ids {
		r, done, known := s.Poll(id)
		if !known || !done || r.Err != nil {
			t.Fatalf("ticket %d after Close: known=%v done=%v err=%v", id, known, done, r.Err)
		}
	}
}

// TestResultCacheHoldsCap fills the result cache with exactly its
// capacity of distinct successes: all of them stay cached. Past the
// capacity, eviction keeps the count at the capacity.
func TestResultCacheHoldsCap(t *testing.T) {
	const capacity = 64
	s := New(Config{Workers: 2, ResultCacheCap: capacity})
	defer s.Close()
	ins := make([]*moldable.Instance, capacity+16)
	for i := range ins {
		ins[i] = moldable.Random(moldable.GenConfig{N: 4, M: 16, Seed: uint64(i + 1)})
	}
	opt := core.Options{Algorithm: core.LT2}
	for i, r := range s.DoBatchCtx(context.Background(), ins[:capacity], opt) {
		if r.Err != nil || r.Cached {
			t.Fatalf("instance %d: err=%v cached=%v", i, r.Err, r.Cached)
		}
	}
	if got := s.Stats().CachedResults; got != capacity {
		t.Fatalf("%d distinct successes left %d cached, want %d", capacity, got, capacity)
	}
	s.DoBatchCtx(context.Background(), ins[capacity:], opt)
	if got := s.Stats().CachedResults; got != capacity {
		t.Fatalf("past the capacity %d results are cached, want %d", got, capacity)
	}
}
