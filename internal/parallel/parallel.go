// Package parallel provides the shared-memory parallelism utilities of
// the repo (DESIGN.md §5; engineering substrate, not part of the
// paper — Jansen & Land's algorithms are sequential), in two tiers:
//
//   - Fork-join (ForEach, Map, Errors): a bounded loop over an index
//     range with contiguous chunking (one chunk per worker, so false
//     sharing across neighbouring indices stays within a worker) and
//     zero per-index overhead. The right tool for one-shot in-memory
//     sweeps where each iteration is cheap.
//   - The sharded work-queue Pool: long-lived workers, bounded queues,
//     key-affine routing, and batch/drain semantics, at the cost of a
//     channel round-trip per task. The substrate for the serving
//     layer (internal/service), where tasks are entire scheduling
//     calls and affinity/caching matter more than per-task overhead.
//
// The scheduling algorithms themselves are sequential — their inner
// loops are dominated by O(log m) binary searches that do not amortize
// goroutine overhead — but instance validation, γ precomputation over
// many thresholds, experiment sweeps, and independent scheduling
// requests are embarrassingly parallel.
package parallel

import (
	"runtime"
	"sync"
)

// Workers returns the effective worker count: w if positive, otherwise
// GOMAXPROCS.
func Workers(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach calls fn(i) for every i in [0, n), distributing contiguous
// index chunks over min(workers, n) goroutines and blocking until all
// complete. workers ≤ 0 selects GOMAXPROCS. fn must be safe for
// concurrent invocation on distinct indices.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Map applies fn to every index and collects the results.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) { out[i] = fn(i) })
	return out
}

// Errors runs fn over [0, n) and returns the first non-nil error by
// index order (all indices are still visited; later errors are
// discarded deterministically).
func Errors(n, workers int, fn func(i int) error) error {
	errs := Map(n, workers, fn)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
