package obs

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestTraceRingWraparound(t *testing.T) {
	r := &TraceRing{source: "test"} // unregistered: keep Default clean
	n := RingCap*2 + 17
	for i := 0; i < n; i++ {
		r.Record(TraceEvent{At: int64(i)})
	}
	if got := r.Recorded(); got != uint64(n) {
		t.Fatalf("recorded %d, want %d", got, n)
	}
	evs := r.Snapshot(nil)
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
}

func TestTraceRingSampling(t *testing.T) {
	old := SetTraceSampling(4)
	defer SetTraceSampling(old)
	r := &TraceRing{source: "test"}
	for i := 0; i < 100; i++ {
		r.Record(TraceEvent{At: int64(i)})
	}
	if got := r.Recorded(); got != 25 {
		t.Errorf("stride 4 over 100 events recorded %d, want 25", got)
	}
	SetTraceSampling(0)
	r.Record(TraceEvent{})
	if got := r.Recorded(); got != 25 {
		t.Errorf("stride 0 must disable recording; got %d", got)
	}
}

// TestTraceRingConcurrentReaders drives one writer against many
// snapshotting readers under -race. The writer must never block and
// every snapshot must be internally consistent (oldest-first, strictly
// increasing stamps); drops are allowed and counted. The goroutine
// count must return to baseline afterwards. Readers pause between
// snapshots, as stats readers do in real use. Four unpaced readers on a
// loaded machine queue on the mutex, which then hands the lock from
// reader to reader (starvation mode) and fails every one of the
// writer's TryLocks; yielding alone still did so about once in a
// thousand runs.
func TestTraceRingConcurrentReaders(t *testing.T) {
	base := runtime.NumGoroutine()
	r := NewTraceRing("race")
	const writes = 20000
	const readers = 4

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []TraceEvent
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				for j := 1; j < len(buf); j++ {
					if buf[j].At < buf[j-1].At {
						t.Error("snapshot out of order")
						return
					}
				}
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}
	for i := 0; i < writes; i++ {
		r.Record(TraceEvent{At: int64(i)})
	}
	close(stop)
	wg.Wait()

	if rec, dr := r.Recorded(), r.Dropped(); rec+uint64(dr) != writes {
		t.Errorf("recorded %d + dropped %d != %d writes", rec, dr, writes)
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

func TestSnapshotTracesMergesAndBounds(t *testing.T) {
	reg := &Registry{}
	a := &TraceRing{source: "a"}
	b := &TraceRing{source: "b"}
	reg.addRing(a)
	reg.addRing(b)
	for i := 0; i < 10; i++ {
		a.Record(TraceEvent{At: int64(2 * i)})
		b.Record(TraceEvent{At: int64(2*i + 1)})
	}
	all := reg.SnapshotTraces(0)
	if len(all) != 20 {
		t.Fatalf("merged %d events, want 20", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].At < all[i-1].At {
			t.Fatal("merge not time-ordered")
		}
	}
	tail := reg.SnapshotTraces(5)
	if len(tail) != 5 || tail[0].At != 15 {
		t.Fatalf("max=5 kept %d events starting at %d; want 5 starting at 15", len(tail), tail[0].At)
	}
}

func TestRegistryRingBound(t *testing.T) {
	reg := &Registry{}
	first := &TraceRing{source: "first"}
	reg.addRing(first)
	for i := 0; i < maxRings; i++ {
		reg.addRing(&TraceRing{source: "filler"})
	}
	reg.mu.Lock()
	n := len(reg.rings)
	evicted := reg.rings[0] != first
	reg.mu.Unlock()
	if n != maxRings {
		t.Errorf("ring list grew to %d, want bound %d", n, maxRings)
	}
	if !evicted {
		t.Error("oldest ring not evicted at bound")
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
	r := NewTraceRing("zeroalloc")
	e := TraceEvent{TID: "t-1", Algo: "linear", N: 8, M: 64}
	if n := testing.AllocsPerRun(200, func() { r.Record(e) }); n != 0 {
		t.Errorf("Record allocates %.0f/op", n)
	}
}
