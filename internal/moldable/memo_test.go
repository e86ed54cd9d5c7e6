package moldable

import (
	"context"
	"math/rand/v2"
	"sync"
	"testing"
)

// memoAgrees checks that a memoized job returns exactly the wrapped
// job's values on every probe, twice (cold then cached).
func memoAgrees(t *testing.T, j Job, m int) {
	t.Helper()
	c := Memoize(j, m)
	for pass := 0; pass < 2; pass++ {
		for p := 1; p <= m; p++ {
			if got, want := c.Time(p), j.Time(p); got != want {
				t.Fatalf("pass %d: memo.Time(%d) = %v, want %v", pass, p, got, want)
			}
		}
	}
	hits, misses := c.Stats()
	if hits < int64(m) {
		t.Errorf("after two passes over 1..%d: hits = %d, want ≥ %d", m, hits, m)
	}
	if misses > int64(m) && len(c.dense) > 0 {
		t.Errorf("dense memo: misses = %d, want ≤ %d", misses, m)
	}
}

func TestMemoDense(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	memoAgrees(t, Amdahl{Seq: 3, Par: 97}, 64)
	memoAgrees(t, SmallTable(rng, 100, 50), 100)
	memoAgrees(t, Comm{W: 100, C: 0.5}, 128)
}

func TestMemoMap(t *testing.T) {
	m := memoDenseMax * 4 // forces the bounded-map path
	j := Power{W: 1000, Alpha: 0.8}
	c := Memoize(j, m)
	if c.dense != nil {
		t.Fatalf("m=%d should use the map path", m)
	}
	for pass := 0; pass < 2; pass++ {
		for p := 1; p <= m; p += m / 97 {
			if got, want := c.Time(p), j.Time(p); got != want {
				t.Fatalf("memo.Time(%d) = %v, want %v", p, got, want)
			}
		}
	}
	if hits, _ := c.Stats(); hits == 0 {
		t.Error("second pass produced no hits")
	}
}

func TestMemoMapBounded(t *testing.T) {
	j := PerfectSpeedup{W: 1}
	c := Memoize(j, memoDenseMax*2)
	for p := 1; p <= memoMapBound*2; p++ {
		c.Time(p)
	}
	if len(c.vals) > memoMapBound {
		t.Fatalf("map grew to %d entries, bound is %d", len(c.vals), memoMapBound)
	}
	// Saturated cache must still answer correctly.
	if got, want := c.Time(memoMapBound*2), j.Time(memoMapBound*2); got != want {
		t.Fatalf("saturated memo.Time = %v, want %v", got, want)
	}
}

func TestMemoizeIdempotent(t *testing.T) {
	c := Memoize(Sequential{T: 5}, 10)
	if again := Memoize(c, 10); again != c {
		t.Error("Memoize(Memo) must return the same wrapper")
	}
}

func TestMemoOutOfRangeProbes(t *testing.T) {
	j := Table{T: []Time{4, 2, 1}}
	c := Memoize(j, 3)
	if got := c.Time(10); got != j.Time(10) {
		t.Errorf("out-of-range probe = %v, want %v", got, j.Time(10))
	}
}

// envelopeOf re-encodes every job of in as an EnvelopeTable sampled
// over 1..in.M: the same oracle values behind the non-compact O(p)
// oracle that MemoizeInstance wraps (closed forms stay bare).
func envelopeOf(in *Instance) *Instance {
	out := &Instance{M: in.M, Jobs: make([]Job, len(in.Jobs))}
	for i, j := range in.Jobs {
		raw := make([]Time, in.M)
		for p := range raw {
			raw[p] = j.Time(p + 1)
		}
		out.Jobs[i] = EnvelopeTable{Raw: raw}
	}
	return out
}

func TestMemoizeInstance(t *testing.T) {
	in := envelopeOf(Random(GenConfig{N: 20, M: 256, Seed: 3}))
	min, stats := MemoizeInstance(in)
	if min.M != in.M || min.N() != in.N() {
		t.Fatal("memoized instance changed shape")
	}
	for pass := 0; pass < 2; pass++ {
		for i, j := range min.Jobs {
			for _, p := range []int{1, 7, 128, 256} {
				if got, want := j.Time(p), in.Jobs[i].Time(p); got != want {
					t.Fatalf("job %d: Time(%d) = %v, want %v", i, p, got, want)
				}
			}
		}
	}
	hits, misses := stats()
	if misses == 0 || hits == 0 {
		t.Errorf("stats() = (%d, %d), want both positive after repeated probes", hits, misses)
	}
}

// TestMemoizeInstanceSkipsO1Oracles: MemoizeInstance wraps exactly the
// jobs that NeedsMemo — an EnvelopeTable, bare or inside Capped/Scaled,
// and user job types — and passes the O(1) oracles through unchanged.
func TestMemoizeInstanceSkipsO1Oracles(t *testing.T) {
	pw, err := NewPiecewise([]int{1, 4}, []Time{8, 3})
	if err != nil {
		t.Fatal(err)
	}
	env := EnvelopeTable{Raw: []Time{9, 5, 4, 3}}
	in := &Instance{M: 16, Jobs: []Job{
		Amdahl{Seq: 1, Par: 9}, Power{W: 5, Alpha: 0.5}, PerfectSpeedup{W: 4}, Sequential{T: 2},
		Comm{W: 50, C: 1}, Table{T: []Time{4, 2}}, pw,
		Capped{J: Scaled{J: Amdahl{Seq: 1, Par: 3}, Factor: 2}, Max: 3},
		env, Scaled{J: Capped{J: env, Max: 2}, Factor: 3}, &CountingJob{J: Sequential{T: 1}},
	}}
	const firstMemoized = 8
	twin, stats := MemoizeInstance(in)
	for i, j := range twin.Jobs {
		_, memoized := j.(*Memo)
		if want := i >= firstMemoized; memoized != want || NeedsMemo(in.Jobs[i]) != want {
			t.Errorf("job %d (%T): memoized=%v NeedsMemo=%v, want %v", i, in.Jobs[i], memoized, NeedsMemo(in.Jobs[i]), want)
		}
		for p := 1; p <= in.M; p++ {
			if got, want := j.Time(p), in.Jobs[i].Time(p); got != want {
				t.Fatalf("job %d: Time(%d) = %v, want %v", i, p, got, want)
			}
		}
	}
	if hits, misses := stats(); misses != int64(3*in.M) || hits != 0 {
		t.Errorf("stats() = (%d, %d), want (0, %d): one miss per probe of each memoized job", hits, misses, 3*in.M)
	}
}

// TestMemoConcurrent hammers both memo variants from many goroutines;
// run with -race to check the synchronization (CI does).
func TestMemoConcurrent(t *testing.T) {
	for _, m := range []int{1024, memoDenseMax * 2} {
		j := Amdahl{Seq: 1, Par: 99}
		c := Memoize(j, m)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, 0))
				for i := 0; i < 2000; i++ {
					p := 1 + rng.IntN(m)
					if got, want := c.Time(p), j.Time(p); got != want {
						t.Errorf("concurrent Time(%d) = %v, want %v", p, got, want)
						return
					}
				}
			}(uint64(g))
		}
		wg.Wait()
	}
}

func TestEnvelopeTable(t *testing.T) {
	e := EnvelopeTable{Raw: []Time{10, 6, 8, 3, 5}}
	want := []Time{10, 6, 6, 3, 3}
	for p := 1; p <= len(want); p++ {
		if got := e.Time(p); got != want[p-1] {
			t.Errorf("Time(%d) = %v, want %v", p, got, want[p-1])
		}
	}
	if got := e.Time(99); got != 3 {
		t.Errorf("Time beyond table = %v, want 3", got)
	}
}

// A monotone-table-fed envelope must pass instance validation, which is
// how the benchmarks construct expensive-but-monotone oracles.
func TestEnvelopeTableMonotoneSource(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0))
	raw := SmallTable(rng, 200, 100).T
	in := &Instance{M: 200, Jobs: []Job{EnvelopeTable{Raw: raw}}}
	if err := in.ValidateCtx(context.Background(), 0); err != nil {
		t.Fatalf("monotone-fed envelope failed validation: %v", err)
	}
}

func TestEnvelopeTableRoundTrip(t *testing.T) {
	in := &Instance{M: 8, Jobs: []Job{
		EnvelopeTable{Raw: []Time{9, 5, 7, 2}},
		Memoize(Amdahl{Seq: 1, Par: 9}, 8), // must flatten to amdahl
	}}
	data, err := MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalInstance(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range back.Jobs {
		for p := 1; p <= 8; p++ {
			if got, want := j.Time(p), in.Jobs[i].Time(p); got != want {
				t.Fatalf("job %d after round trip: Time(%d) = %v, want %v", i, p, got, want)
			}
		}
	}
	if _, ok := back.Jobs[1].(Amdahl); !ok {
		t.Errorf("memoized job serialized as %T, want Amdahl", back.Jobs[1])
	}
}
