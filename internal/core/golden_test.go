package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/fast"
	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// goldenCase is one corpus entry: a seeded instance and the ε it runs at.
type goldenCase struct {
	cfg moldable.GenConfig
	eps float64
}

// goldenCorpus covers the three regimes the algorithms branch on:
// m < 16n (the knapsack duals, Conv's convolution engine among them),
// m ≥ 16n (the FPTAS dual every fast algorithm shares there, and Auto's
// FPTAS pick), and m below / at or above fast.ConvMinM. The tiny first
// entry routes PTAS through the exact solver.
var goldenCorpus = []goldenCase{
	{moldable.GenConfig{N: 4, M: 6, Seed: 11}, 0.5},
	{moldable.GenConfig{N: 24, M: 64, Seed: 1}, 0.25},
	{moldable.GenConfig{N: 48, M: 512, Seed: 4}, 0.1},
	{moldable.GenConfig{N: 20, M: 320, Seed: 2}, 0.25},
	{moldable.GenConfig{N: 12, M: 1024, Seed: 3}, 0.2},
	{moldable.GenConfig{N: 160, M: 600, Seed: 5}, 0.1},
}

// goldenSums pins, per algorithm, a SHA-256 over every corpus run's
// outcome: the error code for a refused run, otherwise the makespan
// bits, ω, the probe count and every placement. Any change to a
// schedule the library produces changes the digest.
var goldenSums = map[string]string{
	"auto":   "948a05cbe1ee5dcce11f450591732ed5298ec2418de64c909251afc71b00da45",
	"lt2":    "0826de3e7073e6012bc6d922c105ad5e54960f27b5432563e06c7d6c4d36611a",
	"mrt":    "9a55603f71daa5339184c78157c1688ddc9b9c96dcf2a985c132d5a0c52bcb90",
	"alg1":   "284de1d18926eae53260fe6de9527fe2c4d0fc9e448e51b9587f825d0c26e5f5",
	"alg3":   "9d68088f422631040e96d0aaf0ee9b934a531a1493f80a18dbe572d7d1bc695b",
	"linear": "9d68088f422631040e96d0aaf0ee9b934a531a1493f80a18dbe572d7d1bc695b",
	"fptas":  "23851065a0cfc1f18a252f3ddd9646b66beefa4ca31863762bcec70fc363ba35",
	"conv":   "435403a171dae2b3aa9faafab0b67bb8bfec0b886b6860118b509fb7fa3f9716",
	"ptas":   "fbfa8c32d0b88a88b70434721bc98d2ebc0a8389c34b43c74cfd97729d4cab79",
}

func goldenWrite(h hash.Hash, s *schedule.Schedule, rep *Report, err error) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if err != nil {
		h.Write([]byte("err:" + scherr.Code(err) + ";"))
		return
	}
	put(math.Float64bits(float64(s.Makespan())))
	put(math.Float64bits(float64(rep.Omega)))
	put(uint64(rep.Iterations))
	put(uint64(s.M))
	put(uint64(len(s.Placements)))
	for _, p := range s.Placements {
		put(uint64(p.Job))
		put(uint64(p.Procs))
		put(math.Float64bits(float64(p.Start)))
		put(math.Float64bits(float64(p.Duration)))
		put(uint64(int64(p.FirstProc)))
	}
}

// TestGoldenOutputs proves a refactor changed no schedule: every
// algorithm, with a nil scratch and with one warm Scratch reused across
// the corpus, must reproduce the committed digests.
func TestGoldenOutputs(t *testing.T) {
	ins := make([]*moldable.Instance, len(goldenCorpus))
	for i, c := range goldenCorpus {
		ins[i] = moldable.Random(c.cfg)
	}
	if ins[len(ins)-1].M < fast.ConvMinM || ins[0].M >= fast.ConvMinM {
		t.Fatal("corpus must straddle fast.ConvMinM")
	}
	ctx := context.Background()
	check := func(name, run, got string) {
		t.Helper()
		if want := goldenSums[name]; got != want {
			t.Errorf("%s (%s): golden digest %s, want %s", name, run, got, want)
		}
	}
	for _, a := range Algorithms() {
		warm := NewScratch()
		for pass, sc := range []*Scratch{nil, warm, warm} {
			run := "nil scratch"
			if sc != nil {
				run = fmt.Sprintf("warm scratch, pass %d", pass)
			}
			h := sha256.New()
			for i, in := range ins {
				s, rep, err := ScheduleScratchCtx(ctx, in, Options{Algorithm: a, Eps: goldenCorpus[i].eps}, sc)
				goldenWrite(h, s, &rep, err)
			}
			check(a.String(), run, hex.EncodeToString(h.Sum(nil)))
		}
	}
	h := sha256.New()
	for i, in := range ins {
		s, rep, err := PTAS(ctx, in, goldenCorpus[i].eps)
		goldenWrite(h, s, rep, err)
	}
	check("ptas", "exact or FPTAS", hex.EncodeToString(h.Sum(nil)))
}

// goldenWideCorpus covers m ≥ 16n up to m = 2^20, which goldenCorpus
// reaches with two instances: there Alg1, Alg3, Linear and Conv all
// run the FPTAS dual of §4.2.5 (chosen by Scratch.dualFor).
var goldenWideCorpus = []goldenCase{
	{moldable.GenConfig{N: 8, M: 256, Seed: 21}, 0.25},
	{moldable.GenConfig{N: 40, M: 1 << 12, Seed: 22}, 0.1},
	{moldable.GenConfig{N: 64, M: 1 << 16, Seed: 23}, 0.2},
	{moldable.GenConfig{N: 96, M: 1 << 20, Seed: 24}, 0.3},
}

// goldenWideSums pins the outcomes on goldenWideCorpus, digested like
// goldenSums. The four algorithms run identical code there, so the
// four digests are one.
var goldenWideSums = map[string]string{
	"alg1":   "eb85f02da37036686fcc0c7e9ca64689bc70f466345206d1403585f913eae55d",
	"alg3":   "eb85f02da37036686fcc0c7e9ca64689bc70f466345206d1403585f913eae55d",
	"linear": "eb85f02da37036686fcc0c7e9ca64689bc70f466345206d1403585f913eae55d",
	"conv":   "eb85f02da37036686fcc0c7e9ca64689bc70f466345206d1403585f913eae55d",
}

// TestGoldenWideOutputs is TestGoldenOutputs for the large-machine
// regime of the fast algorithms; every run must also validate within
// (3/2+ε)·2ω.
func TestGoldenWideOutputs(t *testing.T) {
	ctx := context.Background()
	ins := make([]*moldable.Instance, len(goldenWideCorpus))
	for i, c := range goldenWideCorpus {
		ins[i] = moldable.Random(c.cfg)
		if ins[i].M < 16*ins[i].N() {
			t.Fatalf("wide corpus entry %d has m < 16n", i)
		}
	}
	for _, a := range []Algorithm{Alg1, Alg3, Linear, Conv} {
		warm := NewScratch()
		for pass, sc := range []*Scratch{nil, warm, warm} {
			h := sha256.New()
			for i, in := range ins {
				s, rep, err := ScheduleScratchCtx(ctx, in, Options{Algorithm: a, Eps: goldenWideCorpus[i].eps}, sc)
				if err != nil {
					t.Fatalf("%s: wide corpus entry %d: %v", a, i, err)
				}
				if verr := schedule.Validate(in, s, schedule.Options{}); verr != nil {
					t.Fatalf("%s: wide corpus entry %d: invalid schedule: %v", a, i, verr)
				}
				if bound := (1.5 + goldenWideCorpus[i].eps) * 2 * rep.Omega; rep.Makespan > bound {
					t.Fatalf("%s: wide corpus entry %d: makespan %v > (3/2+ε)·2ω = %v", a, i, rep.Makespan, bound)
				}
				goldenWrite(h, s, &rep, err)
			}
			if got, want := hex.EncodeToString(h.Sum(nil)), goldenWideSums[a.String()]; got != want {
				t.Errorf("%s (pass %d): golden digest %s, want %s", a, pass, got, want)
			}
		}
	}
}
