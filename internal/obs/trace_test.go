package obs

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTraceRingWraparound(t *testing.T) {
	var r TraceRing // not the process ring: keep it clean
	n := RingCap*2 + 17
	for i := 0; i < n; i++ {
		r.Record(TraceEvent{At: int64(i), Source: "test"})
	}
	evs := r.Snapshot(0)
	if len(evs) != RingCap {
		t.Fatalf("snapshot kept %d events, want %d", len(evs), RingCap)
	}
	// Oldest-first, and exactly the last RingCap writes survive.
	for i, e := range evs {
		want := int64(n - RingCap + i)
		if e.At != want {
			t.Fatalf("evs[%d].At = %d, want %d", i, e.At, want)
		}
		if e.Source != "test" {
			t.Fatalf("evs[%d].Source = %q, want test", i, e.Source)
		}
	}
	// max keeps the most recent events, oldest first; a max beyond
	// what the ring retains keeps everything.
	tail := r.Snapshot(5)
	if len(tail) != 5 || tail[0].At != int64(n-5) || tail[4].At != int64(n-1) {
		t.Fatalf("max=5 kept %d events starting at %d; want 5 starting at %d", len(tail), tail[0].At, n-5)
	}
	if got := len(r.Snapshot(RingCap + 1)); got != RingCap {
		t.Fatalf("max=%d kept %d events, want %d", RingCap+1, got, RingCap)
	}
	var fresh TraceRing
	fresh.Record(TraceEvent{At: 1})
	fresh.Record(TraceEvent{At: 2})
	if got := fresh.Snapshot(0); len(got) != 2 || got[0].At != 1 || got[1].At != 2 {
		t.Fatalf("partly filled ring snapshot = %+v, want At 1 then 2", got)
	}
}

// TestTraceRingConcurrentReaders drives four writers against four
// snapshotting readers under -race. No writer may block, and every
// snapshot must be internally consistent: each writer's events appear
// oldest-first. A sample that meets a reader or another writer is
// dropped and counted, so the events recorded plus the drops counted
// must equal the writes. The goroutine count must return to baseline
// afterwards. Readers pause between snapshots, as stats readers do in
// real use. Four unpaced readers on a loaded machine queue on the
// mutex, which then hands the lock from reader to reader (starvation
// mode) and fails every one of the writers' TryLocks; yielding alone
// still did so about once in a thousand runs.
func TestTraceRingConcurrentReaders(t *testing.T) {
	base := runtime.NumGoroutine()
	dropped := TraceDropped.Value()
	var r TraceRing
	const perWriter = 5000
	const writers = 4
	const readers = 4

	var rd, wr sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var last [writers]int64
				for _, e := range r.Snapshot(0) {
					if e.At < last[e.N] {
						t.Error("snapshot out of order")
						return
					}
					last[e.N] = e.At
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wr.Add(1)
		go func() {
			defer wr.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(TraceEvent{N: w, At: int64(i)})
			}
		}()
	}
	wr.Wait()
	close(stop)
	rd.Wait()

	r.mu.Lock()
	rec := r.n
	r.mu.Unlock()
	dr := TraceDropped.Value() - dropped
	if rec+uint64(dr) != writers*perWriter {
		t.Errorf("recorded %d + dropped %d != %d writes", rec, dr, writers*perWriter)
	} else if rec == 0 {
		t.Error("every write dropped; TryLock contention should not be total")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestCtxTraceID(t *testing.T) {
	if got := CtxTraceID(context.Background()); got != "" {
		t.Errorf("untagged ctx: %q", got)
	}
	ctx := WithTraceID(context.Background(), "t-42")
	if got := CtxTraceID(ctx); got != "t-42" {
		t.Errorf("tagged ctx: %q, want t-42", got)
	}
	if WithTraceID(context.Background(), "") != context.Background() {
		t.Error("empty id must not wrap the context")
	}
	// The lookup itself must not allocate: it runs on the hot path.
	if n := testing.AllocsPerRun(100, func() { CtxTraceID(ctx) }); n != 0 {
		t.Errorf("CtxTraceID allocates %.0f/op", n)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	e := TraceEvent{TID: "t-1", Source: "sched", Algo: "linear", N: 8, M: 64}
	if n := testing.AllocsPerRun(200, func() { RecordTrace(e) }); n != 0 {
		t.Errorf("Record allocates %.0f/op", n)
	}
}
