package service

import (
	"fmt"
	"hash/maphash"
	"math/rand/v2"
	"testing"

	"repro/internal/moldable"
)

// perEntryKey is the reference encoding instanceKey must reproduce:
// the canonical job stream written to the hash one 8-byte word at a
// time, as the keys were first computed.
func perEntryKey(seed maphash.Seed, in *moldable.Instance) uint64 {
	var mh maphash.Hash
	mh.SetSeed(seed)
	writeUint(&mh, uint64(in.M))
	writeUint(&mh, uint64(in.N()))
	for _, j := range in.Jobs {
		perEntryJob(&mh, j)
	}
	return mh.Sum64()
}

func perEntryJob(mh *maphash.Hash, j moldable.Job) {
	switch v := j.(type) {
	case moldable.Amdahl:
		writeUint(mh, 1)
		writeFloat(mh, v.Seq)
		writeFloat(mh, v.Par)
	case moldable.Power:
		writeUint(mh, 2)
		writeFloat(mh, v.W)
		writeFloat(mh, v.Alpha)
	case moldable.PerfectSpeedup:
		writeUint(mh, 3)
		writeFloat(mh, v.W)
	case moldable.Sequential:
		writeUint(mh, 4)
		writeFloat(mh, v.T)
	case moldable.Comm:
		writeUint(mh, 5)
		writeFloat(mh, v.W)
		writeFloat(mh, v.C)
	case moldable.Table:
		writeUint(mh, 6)
		writeUint(mh, uint64(len(v.T)))
		for _, t := range v.T {
			writeFloat(mh, t)
		}
	case moldable.Piecewise:
		writeUint(mh, 8)
		writeUint(mh, uint64(len(v.Procs)))
		for i := range v.Procs {
			writeUint(mh, uint64(v.Procs[i]))
			writeFloat(mh, v.Times[i])
		}
	case moldable.Capped:
		writeUint(mh, 9)
		writeUint(mh, uint64(v.Max))
		perEntryJob(mh, v.J)
	case moldable.Scaled:
		writeUint(mh, 10)
		writeFloat(mh, v.Factor)
		perEntryJob(mh, v.J)
	case *moldable.CountingJob:
		perEntryJob(mh, v.J)
	default:
		panic(fmt.Sprintf("perEntryJob: no reference encoding for %T", j))
	}
}

// TestChunkedHashMatchesPerEntry: the chunked canonical stream gives
// the per-word keys for every job type, wrappers included, at lengths
// on both sides of the chunk boundary (64 words per write).
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
		// Closed forms and wrappers, enough of them that the stream
		// crosses chunk boundaries in the middle of a job.
		for k := 0; k < size%97+5; k++ {
			w := 1 + 100*rng.Float64()
			in.Jobs = append(in.Jobs,
				moldable.Amdahl{Seq: w, Par: 3 * w},
				moldable.Power{W: w, Alpha: rng.Float64()},
				moldable.PerfectSpeedup{W: w},
				moldable.Sequential{T: w},
				moldable.Comm{W: w, C: rng.Float64()},
				moldable.Capped{J: moldable.Scaled{J: moldable.PerfectSpeedup{W: w}, Factor: 2}, Max: 1 + k},
				&moldable.CountingJob{J: moldable.Sequential{T: w}},
			)
		}
		got, ok := h.instanceKey(in)
		if !ok {
			t.Fatalf("size %d: no canonical key", size)
		}
		if want := perEntryKey(seed, in); got != want {
			t.Errorf("size %d: chunked key %#x, per-word key %#x", size, got, want)
		}
	}
}
