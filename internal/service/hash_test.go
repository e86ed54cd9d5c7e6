package service

import (
	"hash/maphash"
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
)

// perEntryKey is the reference encoding instanceKey must reproduce:
// every word of a table or piecewise job written to the hash on its
// own.
func perEntryKey(seed maphash.Seed, in *moldable.Instance) uint64 {
	var mh maphash.Hash
	mh.SetSeed(seed)
	writeUint(&mh, uint64(in.M))
	writeUint(&mh, uint64(in.N()))
	for _, j := range in.Jobs {
		switch v := j.(type) {
		case moldable.Table:
			writeUint(&mh, 6)
			writeUint(&mh, uint64(len(v.T)))
			for _, t := range v.T {
				writeFloat(&mh, t)
			}
		case moldable.Piecewise:
			writeUint(&mh, 8)
			writeUint(&mh, uint64(len(v.Procs)))
			for i := range v.Procs {
				writeUint(&mh, uint64(v.Procs[i]))
				writeFloat(&mh, v.Times[i])
			}
		default:
			panic("perEntryKey: table and piecewise jobs only")
		}
	}
	return mh.Sum64()
}

// TestChunkedHashMatchesPerEntry: the chunked table/piecewise encoding
// gives the per-entry keys, for lengths on both sides of the chunk
// boundary (64 words per write).
func TestChunkedHashMatchesPerEntry(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 0))
	seed := maphash.MakeSeed()
	h := hasher{seed: seed}
	for _, size := range []int{1, 2, 31, 32, 33, 62, 63, 64, 65, 127, 128, 129, 1000, 4096} {
		in := &moldable.Instance{M: size}
		for k := 0; k < 3; k++ {
			in.Jobs = append(in.Jobs, moldable.SmallTable(rng, size, 1000))
		}
		procs := make([]int, size)
		times := make([]moldable.Time, size)
		for i := range procs {
			procs[i] = i + 1
			times[i] = moldable.Time(1000 - i)
		}
		in.Jobs = append(in.Jobs, moldable.Piecewise{Procs: procs, Times: times})
		got, ok := h.instanceKey(in)
		if !ok {
			t.Fatalf("size %d: no canonical key", size)
		}
		if want := perEntryKey(seed, in); got != want {
			t.Errorf("size %d: chunked key %#x, per-entry key %#x", size, got, want)
		}
	}
}
