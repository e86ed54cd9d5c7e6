// Package vetcopy holds each by-value copy form of a typed atomic —
// assignment, range value, by-value argument — that atomicmix leaves to
// `go vet`. TestVetCopylocksCoversTypedAtomics requires copylocks to
// report each line marked "copylocks".
package vetcopy

import "sync/atomic"

type gauge struct {
	val atomic.Int64
	ptr atomic.Pointer[int]
}

func sink(v atomic.Int64) int64 { return v.Load() } // copylocks

func copies(g *gauge, gs []atomic.Int64) int64 {
	c := g.val // copylocks
	p := g.ptr // copylocks
	_ = p.Load()
	t := sink(g.val) + c.Load() // copylocks
	for _, v := range gs {      // copylocks
		t += v.Load()
	}
	return t
}
