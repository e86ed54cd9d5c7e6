package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
)

// frameClient is a WireClient without a connection: enough to build
// submit frames.
func frameClient() *WireClient {
	return &WireClient{enc: encodedInstances{newFPTable[[]byte]()}}
}

// len returns how many fingerprints the table holds.
func (e *encodedInstances) len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.m)
}

// encodings returns how many encodings the table holds and their
// total size in bytes.
func (e *encodedInstances) encodings() (n, size int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range e.m {
		if b != nil {
			n++
			size += len(b)
		}
	}
	return n, size
}

// checkSubmitFrame builds c's submit frame for in and compares it with
// a fresh encodeFrame + AppendInstance of in as it stands now: the same
// bytes, or the same error.
func checkSubmitFrame(t testing.TB, c *WireClient, in *moldable.Instance) {
	t.Helper()
	req, got, gotErr := c.submitFrame(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.25}, true)
	want, wantErr := encodeFrame(req, "instance", func(b []byte) ([]byte, error) { return moldable.AppendInstance(b, in) })
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("submit frame error %v, fresh encoding error %v", gotErr, wantErr)
		}
		return
	}
	defer releaseFrame(got)
	defer releaseFrame(want)
	if !bytes.Equal(*got, *want) {
		t.Fatalf("submit frame differs from a fresh encoding:\n got %s\nwant %s", *got, *want)
	}
}

// mixedInstance is a small instance with every job family: closed
// forms, a table, a piecewise job and wrapped jobs.
func mixedInstance(rng *rand.Rand) *moldable.Instance {
	const m = 16
	in := &moldable.Instance{M: m}
	for range 2 + rng.IntN(4) {
		in.Jobs = append(in.Jobs, randomJob(rng, m))
	}
	in.Jobs = append(in.Jobs, moldable.SmallTable(rng, m, 100))
	return in
}

func randomJob(rng *rand.Rand, m int) moldable.Job {
	w := moldable.Time(1 + rng.IntN(1000))
	switch rng.IntN(8) {
	case 0:
		return moldable.Amdahl{Seq: w / 4, Par: w}
	case 1:
		return moldable.Power{W: w, Alpha: rng.Float64()}
	case 2:
		return moldable.PerfectSpeedup{W: w}
	case 3:
		return moldable.Sequential{T: w}
	case 4:
		return moldable.Comm{W: w, C: rng.Float64()}
	case 5:
		return moldable.SmallTable(rng, m, 100)
	case 6:
		return moldable.Piecewise{Procs: []int{1, 2, m}, Times: []moldable.Time{w, w / 2, w / 4}}
	default:
		return &moldable.CountingJob{J: moldable.PerfectSpeedup{W: w}}
	}
}

// encodeEdits are the edits an instance goes through between submits.
// Each changes the instance in place, as a caller reusing one instance
// value would; a table entry is changed inside the slice the job shares
// with every earlier copy of it.
var encodeEdits = []struct {
	name string
	edit func(rng *rand.Rand, in *moldable.Instance)
}{
	{"unchanged", func(*rand.Rand, *moldable.Instance) {}},
	{"replace a job", func(rng *rand.Rand, in *moldable.Instance) {
		in.Jobs[rng.IntN(len(in.Jobs))] = randomJob(rng, in.M)
	}},
	{"flip a zero's sign", func(rng *rand.Rand, in *moldable.Instance) {
		tb := lastTable(in)
		k := len(tb.T) - 1
		if tb.T[k] == 0 {
			tb.T[k] = -tb.T[k]
		} else {
			tb.T[k] = 0
		}
	}},
	{"change M", func(rng *rand.Rand, in *moldable.Instance) { in.M += 1 + rng.IntN(3) }},
	{"append a job", func(rng *rand.Rand, in *moldable.Instance) {
		in.Jobs = append(in.Jobs, randomJob(rng, in.M))
	}},
	{"change a table entry", func(rng *rand.Rand, in *moldable.Instance) {
		tb := lastTable(in)
		tb.T[rng.IntN(len(tb.T))] += 0.5
	}},
	{"nest wrappers", func(rng *rand.Rand, in *moldable.Instance) {
		k := rng.IntN(len(in.Jobs))
		if rng.IntN(2) == 0 {
			in.Jobs[k] = moldable.Capped{J: in.Jobs[k], Max: 1 + rng.IntN(in.M)}
		} else {
			in.Jobs[k] = moldable.Scaled{J: in.Jobs[k], Factor: 0.5 + rng.Float64()}
		}
	}},
	{"put in a NaN", func(rng *rand.Rand, in *moldable.Instance) {
		in.Jobs[rng.IntN(len(in.Jobs))] = moldable.Sequential{T: math.NaN()}
	}},
}

// lastTable returns the instance's last table job, appending one when
// it has none.
func lastTable(in *moldable.Instance) moldable.Table {
	for k := len(in.Jobs) - 1; k >= 0; k-- {
		if tb, ok := in.Jobs[k].(moldable.Table); ok && len(tb.T) > 0 {
			return tb
		}
	}
	tb := moldable.Table{T: []moldable.Time{4, 2, 1}}
	in.Jobs = append(in.Jobs, tb)
	return tb
}

// TestSubmitEncodeCache applies each edit twice, each followed by
// three submits (the sign flip first zeroes an entry, then flips it):
// every frame is the fresh encoding of the instance as it stands, the
// second submit of an instance records its encoding and the third is
// served from the table, and an instance that cannot be encoded is
// never recorded.
func TestSubmitEncodeCache(t *testing.T) {
	for _, tc := range encodeEdits {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(28, 0))
			c := frameClient()
			in := mixedInstance(rng)
			for k, want := range []int{0, 1, 1} {
				checkSubmitFrame(t, c, in)
				if n, _ := c.enc.encodings(); n != want {
					t.Fatalf("after submit %d of one instance the table holds %d encodings, want %d", k+1, n, want)
				}
			}
			for range 2 {
				tc.edit(rng, in)
				for range 3 {
					checkSubmitFrame(t, c, in)
				}
			}
			want := 3
			if _, err := moldable.MarshalInstance(in); tc.name == "unchanged" || err != nil {
				want = 1
			}
			if n, _ := c.enc.encodings(); n != want {
				t.Errorf("table holds %d encodings, want %d", n, want)
			}
		})
	}
}

// TestSubmitOnceHoldsNoEncodings: a connection that submits 300
// distinct instances once each, as a client that never resubmits does,
// records their fingerprints (at most knownCap) and no encoded bytes.
func TestSubmitOnceHoldsNoEncodings(t *testing.T) {
	c := frameClient()
	rng := rand.New(rand.NewPCG(29, 0))
	for range 300 {
		checkSubmitFrame(t, c, mixedInstance(rng))
	}
	if n, size := c.enc.encodings(); n != 0 || size != 0 {
		t.Errorf("table holds %d encodings (%d bytes) after 300 first submits, want none", n, size)
	}
	if n := c.enc.len(); n != knownCap {
		t.Errorf("table holds %d fingerprints, want the cap %d", n, knownCap)
	}
}

// TestSubmitEncodeCacheBounds: an encoding over maxKnownBytes is not
// recorded, not even its fingerprint, and the table never holds more
// than knownCap encodings.
func TestSubmitEncodeCacheBounds(t *testing.T) {
	c := frameClient()
	big := &moldable.Instance{M: 1 << 16, Jobs: []moldable.Job{moldable.SmallTable(rand.New(rand.NewPCG(1, 0)), 1<<14, 1e6)}}
	for range 3 {
		checkSubmitFrame(t, c, big)
	}
	if n := c.enc.len(); n != 0 {
		t.Errorf("a %d-entry table was recorded", 1<<14)
	}
	for k := range knownCap + 40 {
		in := &moldable.Instance{M: 1 + k, Jobs: []moldable.Job{moldable.Sequential{T: 1}}}
		checkSubmitFrame(t, c, in)
		checkSubmitFrame(t, c, in)
	}
	if n, _ := c.enc.encodings(); n != knownCap {
		t.Errorf("table holds %d encodings, want the cap %d", n, knownCap)
	}
}

// FuzzSubmitEncodeCache drives an instance through a fuzzed sequence
// of edits, submitting after each: every frame must be the fresh
// encoding of the instance as it stands, or fail with its error.
func FuzzSubmitEncodeCache(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 0, 2, 3, 4, 5, 6, 7})
	f.Add(uint64(2), []byte{2, 2, 2, 5, 5, 0})
	f.Add(uint64(3), []byte{7, 1, 1, 6, 6, 6, 0})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		c := frameClient()
		in := mixedInstance(rng)
		checkSubmitFrame(t, c, in)
		for _, op := range ops {
			encodeEdits[int(op)%len(encodeEdits)].edit(rng, in)
			checkSubmitFrame(t, c, in)
		}
	})
}

// TestWireClientConcurrentSubmits has goroutines submit a pool of
// instances on one WireClient at once, so that lookups and records of
// the encoded table race (run under -race). A capturing server checks
// that every instance it receives is the exact encoding of the
// instance submitted under that ticket.
func TestWireClientConcurrentSubmits(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var got [][]byte // instance bytes by ticket id - 1
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sc := bufio.NewScanner(conn)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var req struct {
				Tag      string          `json:"tag"`
				Instance json.RawMessage `json:"instance"`
			}
			if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			got = append(got, bytes.Clone(req.Instance))
			id := len(got)
			mu.Unlock()
			fmt.Fprintf(conn, "{\"tag\":%s,\"id\":%d}\n", strconv.Quote(req.Tag), id)
		}
	}()
	wc, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		wc.Close()
		<-served
	}()
	rng := rand.New(rand.NewPCG(6, 0))
	pool := make([]*moldable.Instance, 6)
	for k := range pool {
		pool[k] = mixedInstance(rng)
	}
	const goroutines, submits = 4, 40
	sent := make([][]*moldable.Instance, goroutines)
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range submits {
				in := pool[(g+k)%len(pool)]
				id, err := wc.Submit(context.Background(), in, core.Options{Eps: 0.25}, false)
				if err != nil {
					t.Error(err)
					return
				}
				sent[g] = append(sent[g], in)
				ids[g] = append(ids[g], id)
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for g := range goroutines {
		for k, in := range sent[g] {
			want, err := moldable.MarshalInstance(in)
			if err != nil {
				t.Fatal(err)
			}
			if b := got[ids[g][k]-1]; !bytes.Equal(b, want) {
				t.Fatalf("ticket %d carried %s, want %s", ids[g][k], b, want)
			}
		}
	}
	if n := wc.enc.len(); n != len(pool) {
		t.Errorf("table holds %d fingerprints, want %d", n, len(pool))
	}
}

// BenchmarkWireSubmit times building a 256-job submit frame: first
// sight, which encodes the instance, and a resubmission, which copies
// the encoding recorded the second time.
func BenchmarkWireSubmit(b *testing.B) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 3})
	ctx := context.Background()
	opt := core.Options{Algorithm: core.Auto, Eps: 0.25}
	submit := func(b *testing.B, c *WireClient) {
		_, frame, err := c.submitFrame(ctx, in, opt, true)
		if err != nil {
			b.Fatal(err)
		}
		releaseFrame(frame)
	}
	b.Run("first", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			submit(b, frameClient())
		}
	})
	b.Run("resubmit", func(b *testing.B) {
		c := frameClient()
		submit(b, c)
		submit(b, c)
		b.ReportAllocs()
		for b.Loop() {
			submit(b, c)
		}
	})
}
