// Package arena provides the allocation-reuse substrate behind the
// zero-allocation scheduling hot path (see docs/PERFORMANCE.md and
// DESIGN.md §6). The paper's headline claim is *linear time*; at
// service scale the constant factors are dominated not by oracle calls
// but by per-probe allocations — job orderings, allotment vectors,
// shelf partitions, knapsack frontiers — so every hot package
// (internal/lt, internal/fptas, internal/fast, internal/shelves,
// internal/knapsack, internal/core) threads a reusable Scratch value
// built from the helpers here. A Scratch is single-goroutine state:
// internal/service gives one to each worker goroutine, which makes
// reuse race-free by construction.
//
// The helpers follow one discipline: buffers grow monotonically and
// are resliced, never freed, so after a warm-up call the steady state
// performs no heap allocation at all (proved by the
// testing.AllocsPerRun guard in internal/core and tracked per
// benchmark family in BENCH_PR3.json via cmd/benchreport).
package arena

// Grow returns a slice of length n, reusing buf's backing array when
// its capacity suffices. The contents are unspecified; callers must
// overwrite every element they read.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// Zeroed returns a slice of length n with every element set to the
// zero value, reusing buf's backing array when possible.
func Zeroed[T any](buf []T, n int) []T {
	buf = Grow(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// Lesser is the ordering constraint for Heap: a type that can compare
// itself against another value of the same type.
type Lesser[T any] interface{ Less(T) bool }

// Heap is a binary min-heap over a reusable backing slice. Unlike
// container/heap it is monomorphic: Push and Pop move concrete values,
// never boxing through interface{}, so steady-state use performs no
// allocation once the backing slice has grown to its working size.
type Heap[T Lesser[T]] struct{ s []T }

// Reset empties the heap, keeping the backing array.
func (h *Heap[T]) Reset() { h.s = h.s[:0] }

// Len returns the number of elements.
func (h *Heap[T]) Len() int { return len(h.s) }

// Min returns the smallest element without removing it. It must not be
// called on an empty heap.
//
//sched:owns-result
func (h *Heap[T]) Min() T { return h.s[0] }

// At returns the i-th element of the backing array, 0 ≤ i < Len().
// Elements appear in heap layout, not sorted order; the layout is
// deterministic for a deterministic Push/Pop sequence, which is all
// callers draining leftovers rely on.
//
//sched:owns-result
func (h *Heap[T]) At(i int) T { return h.s[i] }

// Push adds x.
func (h *Heap[T]) Push(x T) {
	h.s = append(h.s, x)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.s[i].Less(h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

// Pop removes and returns the smallest element. It must not be called
// on an empty heap.
//
//sched:owns-result
func (h *Heap[T]) Pop() T {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.s[l].Less(h.s[smallest]) {
			smallest = l
		}
		if r < last && h.s[r].Less(h.s[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
	return top
}
