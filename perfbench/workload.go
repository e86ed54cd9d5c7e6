package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"strconv"

	"repro/internal/moldable"
	"repro/internal/online"
)

// spec is one named workload. Every run of it makes a fixed number of
// requests, so quality metrics (ratio_mean, flow_mean) are exact for a
// seed; the count is run seconds × rate. On a 2-core reference machine
// hit sustains about 850/s, online about 22000 arrivals/s, miss and
// bigm about 280/s: their runs last longer and hold enough samples for
// a steady p99.
type spec struct {
	name string
	m    int     // machine size
	rate float64 // requests (arrivals for online) per run second
	pool int     // distinct instances the timed phase cycles over; 0: every request distinct
	warm int     // warm-pass requests per connection (sessions for online); hit warms on its pool
	// online workloads run sessions of open_online, arrivals, drain.
	online bool
}

// Reference shapes (ROADMAP): n=256 jobs per instance; the online
// sessions replay the BenchmarkOnline_Throughput trace shape (4096
// Poisson arrivals at rate 8, t(1) log-uniform in [1,500]) on m=1024.
const (
	jobsPerInstance = 256
	sessionArrivals = 4096
	onlineRate      = 8
	onlineMaxWork   = 500
	probeBudget     = 256    // the daemon's default monotonicity probe budget
	defaultEps      = 0.1    // core's default ε, which the workloads use
	minTimed        = window // offline requests per run, at least one full latency window
)

var specs = []spec{
	{name: "hit", m: 4096, rate: 750, pool: 128},
	{name: "miss", m: 4096, rate: 400, warm: 64},
	{name: "bigm", m: 1 << 20, rate: 400, warm: 64},
	{name: "online", m: 1024, rate: 22000, warm: 1, online: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// timedCount is the number of timed requests (offline) or sessions
// (online) a run of the given length makes, a multiple of conns.
func (s spec) timedCount(seconds, conns int) int {
	n := int(math.Round(float64(seconds) * s.rate))
	if s.online {
		n = max(1, n/sessionArrivals)
	} else {
		n = max(n, minTimed)
	}
	return (n + conns - 1) / conns * conns
}

// item is one request of a workload with what its answer is checked
// against.
type item struct {
	in *moldable.Instance // offline request

	trace []online.Arrival // online session
	lb    moldable.Time    // offline lower bound of the session's jobs
}

// requestSet is everything a run sends, generated from the seed.
type requestSet struct {
	spec  spec
	warm  []item
	timed []item
	// digest is the SHA-256 of the encoded timed request stream, and
	// bytes its length: equal seeds give equal digests.
	digest string
	bytes  int64
}

// buildSet generates and pre-encodes the request set of a run: count
// timed requests (sessions for online) plus the warm pass. The same
// (workload, seed, count) always yields the same set.
func buildSet(s spec, seed uint64, count, conns int) (*requestSet, error) {
	salt := uint64(0)
	for _, c := range s.name {
		salt = salt*131 + uint64(c)
	}
	rng := rand.New(rand.NewPCG(seed, salt))
	set := &requestSet{spec: s}
	stream := &streamHash{h: sha256.New()}
	if s.online {
		for i := range s.warm*conns + count {
			sh := stream
			if i < s.warm*conns {
				sh = nil
			}
			it, err := newSession(s, rng.Uint64(), sh)
			if err != nil {
				return nil, err
			}
			if sh == nil {
				set.warm = append(set.warm, it)
			} else {
				set.timed = append(set.timed, it)
			}
		}
	} else {
		for range s.warm * conns {
			set.warm = append(set.warm, newInstance(s, rng.Uint64()))
		}
		distinct := count
		if s.pool > 0 {
			distinct = s.pool
		}
		pool := make([]item, distinct)
		enc := make([][]byte, distinct)
		for i := range pool {
			pool[i] = newInstance(s, rng.Uint64())
			raw, err := moldable.MarshalInstance(pool[i].in)
			if err != nil {
				return nil, fmt.Errorf("encoding instance: %w", err)
			}
			enc[i] = raw
		}
		if s.pool > 0 {
			// Answer the pool, then hit it once, before timing; item i
			// runs on connection i%conns, so each pool entry is answered
			// and hit on the same connection, in that order.
			set.warm = append(append(set.warm, pool...), pool...)
		}
		for i := range count {
			set.timed = append(set.timed, pool[i%distinct])
			stream.add(enc[i%distinct])
		}
	}
	set.digest = hex.EncodeToString(stream.h.Sum(nil))
	set.bytes = stream.n
	return set, nil
}

// streamHash digests and counts the encoded request stream.
type streamHash struct {
	h hash.Hash
	n int64
}

func (s *streamHash) add(b []byte) {
	s.h.Write(b)
	s.n += int64(len(b))
}

// newInstance draws one n=256 instance on the workload's machine.
func newInstance(s spec, seed uint64) item {
	return item{in: moldable.Random(moldable.GenConfig{N: jobsPerInstance, M: s.m, Seed: seed})}
}

// newSession draws one session trace and its offline lower bound:
// max(work/m, longest job, latest release + that job's fastest time).
// When stream is non-nil the encoded arrivals are added to it.
func newSession(s spec, seed uint64, stream *streamHash) (item, error) {
	trace, err := online.Generate(online.TraceConfig{
		N: sessionArrivals, Seed: seed, Process: online.Poisson, Rate: onlineRate,
		Jobs: moldable.GenConfig{MinWork: 1, MaxWork: onlineMaxWork},
	})
	if err != nil {
		return item{}, fmt.Errorf("generating session trace: %w", err)
	}
	in := &moldable.Instance{M: s.m, Jobs: make([]moldable.Job, len(trace))}
	lb := moldable.Time(0)
	for i, a := range trace {
		in.Jobs[i] = a.Job
		lb = max(lb, a.T+a.Job.Time(s.m))
		if stream != nil {
			raw, err := moldable.MarshalJob(a.Job)
			if err != nil {
				return item{}, fmt.Errorf("encoding arrival: %w", err)
			}
			stream.add(strconv.AppendFloat(raw, a.T, 'g', -1, 64))
		}
	}
	return item{trace: trace, lb: max(lb, in.LowerBound())}, nil
}
