package service

import (
	"encoding/binary"
	"hash/maphash"
	"math"

	"repro/internal/core"
	"repro/internal/moldable"
)

// Canonical instance hashing. Two instances that are structurally equal
// (same m, same job parameters in the same order) hash to the same
// 64-bit key, which drives all the sharing in this package: the result
// cache and worker-queue affinity.
// The key is a maphash (seeded per Scheduler) of the instance's
// canonical job stream, moldable.WriteCanonical: no intermediate
// serialization, so hashing a table-backed instance costs one pass over
// its entries, negligible next to a single oracle-driven Schedule call.
// A wrapper that doesn't change oracle values (CountingJob) is hashed
// as its inner job; job types without a canonical encoding report
// ok=false and bypass all caches. A wire "envelope" job is a Table by
// the time it is hashed, so it shares its key with the "table" job of
// its running minima.
//
// Collisions: keys are 64-bit, so two distinct live instances colliding
// takes ~2³² cached instances (the cache holds about a thousand); the
// worst case is serving a result for the colliding twin, the same
// accepted risk as any content-addressed cache.

type hasher struct {
	seed maphash.Seed
}

func newHasher() hasher { return hasher{seed: maphash.MakeSeed()} }

// HashInstance is the canonical content hash of (m, jobs) under the
// given seed, with ok=false when some job type has no canonical
// encoding. It is the exported face of the scheduler's internal
// instance hashing, for code outside the package that needs the same
// key: perfbench times it as the ladder's hash rung, and the codec
// tests use it to check that a decoded instance hashes like the
// original.
func HashInstance(seed maphash.Seed, in *moldable.Instance) (key uint64, ok bool) {
	return hasher{seed: seed}.instanceKey(in)
}

// instanceKey returns the canonical content hash of (m, jobs), with
// ok=false when some job type has no canonical encoding.
func (h hasher) instanceKey(in *moldable.Instance) (key uint64, ok bool) {
	var mh maphash.Hash
	mh.SetSeed(h.seed)
	if !moldable.WriteCanonical(in, &mh) {
		return 0, false
	}
	return mh.Sum64(), true
}

// resultKey extends an instance key with the scheduling options, keying
// the result cache (same instance, different ε or algorithm → different
// schedule).
func (h hasher) resultKey(instKey uint64, opt core.Options) uint64 {
	var mh maphash.Hash
	mh.SetSeed(h.seed)
	writeUint(&mh, instKey)
	writeUint(&mh, uint64(opt.Algorithm))
	writeFloat(&mh, opt.Eps)
	if opt.Validate {
		writeUint(&mh, 1)
	} else {
		writeUint(&mh, 0)
	}
	return mh.Sum64()
}

func writeUint(mh *maphash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	mh.Write(buf[:])
}

func writeFloat(mh *maphash.Hash, f float64) {
	writeUint(mh, math.Float64bits(f))
}
