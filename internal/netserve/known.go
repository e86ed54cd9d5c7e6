package netserve

import (
	"bytes"
	"context"
	"hash/maphash"
	"sync"

	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/scherr"
	"repro/internal/wirejson"
)

// knownInstances remembers the instances a server has already decoded
// and validated, keyed by a fingerprint of their exact wire bytes, so
// that a resubmission of the same bytes (every result-cache hit) skips
// the decode and the monotonicity probes (DESIGN.md §5). The instances
// it hands out are shared between requests and must not be mutated.
type knownInstances struct {
	fpTable[*moldable.Instance]
}

// fingerprint is 128 bits of hash: two maphash values under
// independent seeds.
type fingerprint [2]uint64

const (
	// knownCap bounds the entries one fpTable retains.
	knownCap = 256
	// maxKnownBytes bounds the encoding of a recorded instance (a
	// 256-job instance takes about 15 KB), so that a full table pins a
	// bounded amount of memory whatever clients send; a larger instance
	// is decoded and probed on every submission, and encoded on every
	// WireClient.Submit.
	maxKnownBytes = 64 << 10
)

// fpTable is a bounded map from fingerprints, with the seeds its
// owner computes them under: the server's table of decoded instances
// and the client's table of encoded ones. It holds at most knownCap
// entries and evicts an arbitrary one when full, like the service's
// caches.
type fpTable[V any] struct {
	seeds [2]maphash.Seed
	mu    sync.Mutex
	m     map[fingerprint]V //sched:guardedby mu
}

func newFPTable[V any]() fpTable[V] {
	return fpTable[V]{
		seeds: [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()},
		m:     make(map[fingerprint]V),
	}
}

func newKnownInstances() *knownInstances {
	return &knownInstances{newFPTable[*moldable.Instance]()}
}

func (k *knownInstances) sum(b []byte) fingerprint {
	return fingerprint{maphash.Bytes(k.seeds[0], b), maphash.Bytes(k.seeds[1], b)}
}

// get returns the value recorded under fp and whether fp is recorded.
func (t *fpTable[V]) get(fp fingerprint) (V, bool) {
	t.mu.Lock()
	v, ok := t.m[fp]
	t.mu.Unlock()
	return v, ok
}

func (t *fpTable[V]) put(fp fingerprint, v V) {
	t.mu.Lock()
	if _, ok := t.m[fp]; !ok && len(t.m) >= knownCap {
		for old := range t.m { // evict an arbitrary entry
			delete(t.m, old)
			break
		}
	}
	t.m[fp] = v
	t.mu.Unlock()
}

// validate checks in, the instance that submit frame r carries, and
// reports what ValidateCtx would. An instance the frame scanner took
// from k passed ValidateCtx under the same probe budget when it was
// recorded, so only the context check that ValidateCtx makes before
// probing the first job remains. Any other instance is validated in
// full and, when the scanner fingerprinted its bytes, recorded once it
// passes.
func (k *knownInstances) validate(ctx context.Context, in *moldable.Instance, r *Request, probes int) error {
	if r.instKnown {
		if obs.On() {
			obs.WireInstancesReused.Inc()
		}
		if err := ctx.Err(); err != nil {
			return scherr.Canceled(err)
		}
		return nil
	}
	if err := in.ValidateCtx(ctx, probes); err != nil {
		return err
	}
	if r.instSpan {
		k.put(r.instFP, in)
	}
	return nil
}

// scanInstance reads the "instance" member's value at s, in frame
// line. A value that runs to the frame's closing brace, as in every
// frame WireClient writes, is looked up by the fingerprint of its
// bytes: a known one is taken from k and skipped unread; an unknown one
// is decoded, and its fingerprint kept for validate to record. A value
// anywhere else in the frame is decoded as it always was.
func (r *Request) scanInstance(s *wirejson.Scanner, line []byte, k *knownInstances) {
	start := s.Pos()
	end := len(bytes.TrimRight(line, " \t\n\r")) - 1 // the closing brace, if line is one object
	if k == nil || start < 0 || start >= end || end-start > maxKnownBytes {
		r.inst, r.instErr = moldable.ScanInstance(s)
		return
	}
	fp := k.sum(line[start:end])
	if in, ok := k.get(fp); ok {
		r.inst, r.instKnown = in, true
		s.Seek(end)
		return
	}
	r.inst, r.instErr = moldable.ScanInstance(s)
	if s.Pos() == end {
		r.instFP, r.instSpan = fp, true
	}
}
