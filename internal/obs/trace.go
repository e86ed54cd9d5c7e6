package obs

import (
	"context"
	"sync"
)

// Decision tracing: every scheduling decision (batch submit, online
// replan, one-shot CLI run) leaves one flat TraceEvent in the process's
// one preallocated ring. Any goroutine may record into it, and readers
// (the stats wire op's trace dimension, moldsched -trace) snapshot it.
// The writer never blocks and never allocates: it TryLocks, and if a
// reader or another writer holds the ring it drops the sample and bumps
// sched_trace_dropped_total instead of waiting.

// TraceEvent is one recorded scheduling decision. Fields are flat
// (fixed-size plus strings that are always compile-time or wire-owned
// constants) so recording copies a value and allocates nothing.
type TraceEvent struct {
	TID      string  // wire trace_id ("" for untagged callers)
	At       int64   // wall clock, Unix nanoseconds
	Source   string  // which layer decided ("sched", "online")
	Algo     string  // resolved algorithm (core.Algorithm.String)
	N        int     // jobs in the instance
	M        int     // machines
	Eps      float64 // accuracy knob in effect
	Probes   int     // dual-approximation oracle probes consumed
	Elapsed  int64   // decision latency, nanoseconds
	Makespan float64 // resulting makespan (0 on error)
	Omega    float64 // dual lower-bound estimate (0 when not computed)
	Code     string  // stable error code (scherr/PROTOCOL.md), "" on success
}

// RingCap is the fixed event capacity of the trace ring: the process
// retains its last RingCap decisions.
const RingCap = 256

// TraceRing is a fixed-capacity ring of decision events. Writers
// TryLock (see Record), so the lock is never a hot-path wait; readers
// Lock.
type TraceRing struct {
	mu  sync.Mutex
	buf [RingCap]TraceEvent //sched:guardedby mu
	n   uint64              //sched:guardedby mu — events written; buf[i%RingCap] holds event i
}

// traces is the process's decision ring.
var traces TraceRing

// RecordTrace stores one decision in the process's ring; see
// TraceRing.Record.
//
//sched:hotpath
func RecordTrace(e TraceEvent) { traces.Record(e) }

// Record stores one event. The write path never blocks and never
// allocates: if a reader or another writer holds the ring, the sample
// is dropped and counted in sched_trace_dropped_total.
//
//sched:hotpath
func (r *TraceRing) Record(e TraceEvent) {
	if !r.mu.TryLock() {
		TraceDropped.Inc()
		return
	}
	r.buf[r.n%RingCap] = e
	r.n++
	r.mu.Unlock()
}

// Snapshot returns the ring's last max events, oldest first; max ≤ 0
// means every retained event. Reader side: allocates the result.
func (r *TraceRing) Snapshot(max int) []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	k := min(r.n, RingCap)
	if max > 0 && uint64(max) < k {
		k = uint64(max)
	}
	out := make([]TraceEvent, 0, k)
	for i := r.n - k; i < r.n; i++ {
		out = append(out, r.buf[i%RingCap])
	}
	return out
}

// SnapshotTraces returns the process's last max decisions, oldest
// first (max ≤ 0 means every retained one); see TraceRing.Snapshot.
func SnapshotTraces(max int) []TraceEvent { return traces.Snapshot(max) }

// traceIDKeyType is unexported so only WithTraceID can build the key.
type traceIDKeyType struct{}

// TraceIDKey carries a wire trace_id through a context. It is
// pointer-typed so the hot-path ctx.Value lookup passes a pointer into
// the interface parameter and does not box (no heap escape for
// escapegate to record).
var TraceIDKey = &traceIDKeyType{}

// WithTraceID tags a context with a wire trace_id for downstream
// decision records. Empty ids tag nothing.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, TraceIDKey, id)
}

// CtxTraceID extracts the trace_id from a context ("" when untagged).
//
//sched:hotpath
func CtxTraceID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(TraceIDKey).(string)
	return id
}
