package service

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/online"
)

// TestOnlineSessionLifecycle: open → arrive → trace → drain releases
// the ticket; metrics and stats account for the session.
func TestOnlineSessionLifecycle(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	id, err := s.OpenOnline(online.Config{M: 16, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		evs, err := s.OnlineArrive(ctx, id, online.Arrival{T: moldable.Time(i), Job: moldable.Amdahl{Seq: 1, Par: 20}})
		if err != nil {
			t.Fatalf("arrive %d: %v", i, err)
		}
		if len(evs) == 0 {
			t.Fatalf("arrive %d produced no events", i)
		}
	}
	if st := s.Stats(); st.OnlineSessions != 1 || st.OnlineOpened != 1 || st.OnlineArrivals != 5 {
		t.Fatalf("stats %+v", st)
	}
	mid, err := s.OnlineTrace(id)
	if err != nil {
		t.Fatal(err)
	}
	evs, met, err := s.OnlineDrain(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if met.Finished != 5 || met.Jobs != 5 {
		t.Fatalf("metrics %+v, want 5 jobs finished", met)
	}
	if len(mid)+len(evs) < 10 { // ≥ 5 arrives + 5 finishes in total
		t.Fatalf("event accounting: %d mid + %d drain", len(mid), len(evs))
	}
	if st := s.Stats(); st.OnlineSessions != 0 {
		t.Fatalf("session not released: %+v", st)
	}
	if _, err := s.OnlineTrace(id); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("trace after drain: %v, want ErrUnknownSession", err)
	}
	if _, _, err := s.OnlineDrain(ctx, id); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("double drain: %v, want ErrUnknownSession", err)
	}
}

// TestOnlineSessionErrors: bad configs are refused at open; a poisoned
// session keeps erroring but drain still releases it.
func TestOnlineSessionErrors(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.OpenOnline(online.Config{M: 0}); err == nil {
		t.Error("m=0 session opened")
	}
	if _, err := s.OnlineArrive(ctx, 999, online.Arrival{T: 0, Job: moldable.Sequential{T: 1}}); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("unknown session error %v", err)
	}
	id, err := s.OpenOnline(online.Config{M: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OnlineArrive(ctx, id, online.Arrival{T: 3, Job: moldable.Sequential{T: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.OnlineArrive(ctx, id, online.Arrival{T: 1, Job: moldable.Sequential{T: 1}}); err == nil {
		t.Fatal("out-of-order arrival accepted")
	}
	if _, _, err := s.OnlineDrain(ctx, id); err == nil {
		t.Fatal("drain of poisoned session did not surface the failure")
	}
	if st := s.Stats(); st.OnlineSessions != 0 {
		t.Fatalf("poisoned session leaked: %+v", st)
	}
}

// TestOnlineSessionsConcurrent runs independent sessions from many
// goroutines (the daemon's concurrency shape: each session serial, the
// set of sessions parallel) under -race in CI.
func TestOnlineSessionsConcurrent(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id, err := s.OpenOnline(online.Config{M: 8 + g, Eps: 0.25})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := s.OnlineArrive(ctx, id, online.Arrival{
					T: moldable.Time(i) * 0.5, Job: moldable.Power{W: 10 + moldable.Time(g), Alpha: 0.8},
				}); err != nil {
					errs <- err
					return
				}
			}
			_, met, err := s.OnlineDrain(ctx, id)
			if err != nil {
				errs <- err
				return
			}
			if met.Finished != 20 {
				errs <- errors.New("incomplete session")
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.OnlineSessions != 0 || st.OnlineOpened != 8 || st.OnlineArrivals != 160 {
		t.Fatalf("stats %+v", st)
	}
}

// TestOnlineSessionsKeepBatchTraces: online sessions register nothing
// with the observability layer. After 600 sessions, each fed one
// arrival and drained, a batch decision made under a fresh trace_id is
// in the process's trace ring, and the live heap has not grown by the
// sessions' trace state.
func TestOnlineSessionsKeepBatchTraces(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	s := New(Config{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	in := moldable.Random(moldable.GenConfig{N: 8, M: 64, Seed: 5})
	// The worker has decided before the sessions open, as a serving
	// process's workers have.
	if r := s.DoCtx(ctx, in, core.Options{Algorithm: core.Linear, Eps: 0.5}); r.Err != nil {
		t.Fatal(r.Err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range 600 {
		id, err := s.OpenOnline(online.Config{M: 4, Eps: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.OnlineArrive(ctx, id, online.Arrival{T: 0, Job: moldable.Sequential{T: 1}}); err != nil {
			t.Fatalf("session %d: arrive: %v", i, err)
		}
		if _, _, err := s.OnlineDrain(ctx, id); err != nil {
			t.Fatalf("session %d: drain: %v", i, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 4<<20 {
		t.Errorf("live heap grew %d KB across 600 drained sessions, want < 4096 KB", grew>>10)
	}

	const tid = "t-after-online-sessions"
	if r := s.DoCtx(obs.WithTraceID(ctx, tid), in, core.Options{Algorithm: core.Linear, Eps: 0.25}); r.Err != nil {
		t.Fatal(r.Err)
	}
	for _, e := range obs.SnapshotTraces(0) {
		if e.TID == tid {
			if e.Source != "sched" || e.Algo != "linear" {
				t.Errorf("decision source/algo = %q/%q, want sched/linear", e.Source, e.Algo)
			}
			return
		}
	}
	t.Errorf("the batch decision tagged %s is missing from the trace ring after 600 online sessions", tid)
}
