package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/scherr"
)

// TestSubmitCtxPreCanceled: a dead context completes the ticket with
// ErrCanceled without scheduling, and the failure is not cached — the
// same instance submitted with a live context computes normally.
func TestSubmitCtxPreCanceled(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	in := testInstance(7)
	opt := core.Options{Algorithm: core.Linear, Eps: 0.25}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, ok := s.Wait(s.SubmitCtx(ctx, in, opt, false).ID)
	if !ok {
		t.Fatal("ticket unknown")
	}
	if !errors.Is(r.Err, scherr.ErrCanceled) || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("pre-canceled submission Err = %v, want ErrCanceled/context.Canceled", r.Err)
	}
	if r.Schedule != nil {
		t.Error("canceled submission carries a schedule")
	}
	live := s.DoCtx(context.Background(), in, opt)
	if live.Err != nil {
		t.Fatalf("live resubmission failed: %v", live.Err)
	}
	if live.Cached {
		t.Error("live resubmission was served from cache: the canceled result was cached")
	}
}

// TestDoCtxDeadline: an already-expired deadline yields ErrCanceled
// that unwraps to context.DeadlineExceeded.
func TestDoCtxDeadline(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	r := s.DoCtx(ctx, testInstance(8), core.Options{Algorithm: core.Linear, Eps: 0.25})
	if !errors.Is(r.Err, scherr.ErrCanceled) || !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline Err = %v, want ErrCanceled/DeadlineExceeded", r.Err)
	}
}

// TestDoCtxKeepsItsResult runs many concurrent cached DoCtx calls with
// a retention FIFO of one ticket, so other calls evict each ticket
// almost as soon as it completes. DoCtx waits on the ticket it holds,
// not on its id, so no live-context call loses its result.
func TestDoCtxKeepsItsResult(t *testing.T) {
	s := New(Config{Workers: 2, TicketCap: 1})
	defer s.Close()
	opt := core.Options{Algorithm: core.LT2}
	in := moldable.Random(moldable.GenConfig{N: 4, M: 16, Seed: 1})
	if r := s.DoCtx(context.Background(), in, opt); r.Err != nil {
		t.Fatal(r.Err)
	}
	const goroutines, calls = 16, 2000
	var lost atomic.Int64
	var wg sync.WaitGroup
	for range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				if r := s.DoCtx(context.Background(), in, opt); r.Err != nil || r.Schedule == nil {
					lost.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d of %d live-context DoCtx calls lost their result", n, goroutines*calls)
	}
}

// TestTicketOutlivesRetention completes two submissions of one
// instance through a retention FIFO of one ticket: the second ages the
// first's id out, so Poll no longer knows it, yet the first's holder
// still reads its own result, with its own Starts flag. The second is
// a cache hit of the first's result and must not inherit that flag.
func TestTicketOutlivesRetention(t *testing.T) {
	s := New(Config{Workers: 1, TicketCap: 1})
	defer s.Close()
	opt := core.Options{Algorithm: core.LT2}
	first := s.SubmitCtx(context.Background(), testInstance(4), opt, true)
	<-first.Done()
	second := s.SubmitCtx(context.Background(), testInstance(4), opt, false)
	<-second.Done()
	if _, _, known := s.Poll(first.ID); known {
		t.Fatal("the first ticket's id outlived a TicketCap of 1")
	}
	if r := first.Result(); r.Err != nil || r.Schedule == nil || !r.Starts {
		t.Fatalf("aged-out ticket: err=%v schedule=%v starts=%v", r.Err, r.Schedule != nil, r.Starts)
	}
	if r, ok := s.Wait(second.ID); !ok || !r.Cached || r.Starts {
		t.Fatalf("cached ticket: ok=%v cached=%v starts=%v", ok, r.Cached, r.Starts)
	}
}

// TestDoBatchCtxCancel: canceling a shared context mid-batch returns a
// full-length slice mixing finished results and ErrCanceled.
func TestDoBatchCtxCancel(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	insts := make([]*moldable.Instance, n)
	for i := range insts {
		insts[i] = testInstance(uint64(100 + i))
	}
	// Deterministic fuse: instance 4's first oracle probe cancels the
	// context. The single worker runs submissions in order, so the
	// instances behind the fuse are still queued when the cancel lands.
	insts[4].Jobs[0] = fuseJob{Job: insts[4].Jobs[0], cancel: cancel}
	out := s.DoBatchCtx(ctx, insts, core.Options{Algorithm: core.Linear, Eps: 0.25})
	if len(out) != n {
		t.Fatalf("got %d results, want %d", len(out), n)
	}
	var canceled int
	for i, r := range out {
		if r.Err != nil {
			if !errors.Is(r.Err, scherr.ErrCanceled) {
				t.Errorf("instance %d: %v, want ErrCanceled", i, r.Err)
			}
			canceled++
		}
	}
	if canceled == 0 {
		t.Error("mid-batch cancel produced no ErrCanceled results")
	}
}

// fuseJob cancels a context at its first oracle probe.
type fuseJob struct {
	moldable.Job
	cancel context.CancelFunc
}

func (f fuseJob) Time(p int) moldable.Time {
	f.cancel()
	return f.Job.Time(p)
}
