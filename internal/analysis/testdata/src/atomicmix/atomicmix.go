// Package atomicmix is the golden corpus for the atomicmix analyzer:
// every use of a sync/atomic package function, called or taken as a
// value, and every use of atomic.Value is flagged; the typed atomics
// are clean.
package atomicmix

import (
	"sync/atomic"
	"unsafe"
)

type hits struct {
	n     uint64
	typed atomic.Int64
}

func (h *hits) inc() {
	atomic.AddUint64(&h.n, 1) // want "untyped sync/atomic\\.AddUint64: .*; use atomic\\.Uint64"
	h.typed.Add(1)
}

// A function value is as untyped as a call.
var load = atomic.LoadInt32 // want "untyped sync/atomic\\.LoadInt32: .*; use atomic\\.Int32"

type box struct {
	v atomic.Value // want "atomic\\.Value panics when a second concrete type is stored; use atomic\\.Pointer\\[T\\]"
	p atomic.Pointer[string]
}

func (b *box) put(s string) { b.p.Store(&s) }

var current *atomic.Value // want "atomic\\.Value panics"

var raw unsafe.Pointer

func swapRaw(p unsafe.Pointer) unsafe.Pointer {
	return atomic.SwapPointer(&raw, p) // want "untyped sync/atomic\\.SwapPointer: .*; use atomic\\.Pointer\\[T\\]"
}
