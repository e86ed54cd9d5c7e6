package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/service"
)

// env is one running server with the benchmark's connections to it.
type env struct {
	srv     *netserve.Server
	addr    string
	clients []*netserve.WireClient
	served  chan error
}

// startEnv starts an in-process server on loopback TCP, configured as
// cmd/moldschedd's defaults (one shard, default caches, probe budget
// 256), and dials conns connections to it.
func startEnv(ctx context.Context, conns int) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	e := &env{
		srv:    netserve.NewServer(ctx, netserve.ServerConfig{Shards: 1, Probes: probeBudget}),
		addr:   ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { e.served <- e.srv.Serve(ln) }()
	for range conns {
		wc, err := netserve.Dial(ctx, e.addr)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("dialing the server: %w", err)
		}
		e.clients = append(e.clients, wc)
	}
	return e, nil
}

// close disconnects every client, stops the server and waits for it.
func (e *env) close() {
	for _, wc := range e.clients {
		wc.Close()
	}
	e.srv.Close()
	<-e.served
}

// blocks is how many equal blocks of completions a pass is cut into;
// throughput and CPU per request are reported as the median over the
// blocks, so a burst of outside load that hits one block barely moves
// them.
const blocks = 10

// pass is what one closed-loop pass over a list of items measured.
type pass struct {
	cpu time.Duration
	// rps and cpuMS are the median over blocks of completions per
	// second and CPU milliseconds per completion.
	rps, cpuMS float64
	lat        []float64 // per request (per arrival for online), milliseconds
	attempted  int
	ok         int
	cached     int     // answers served from the result cache
	ratioMean  float64 // mean Makespan/LowerBound over checked answers
	flowMean   float64 // mean flow time over checked answers
	errs       []string
	stats      service.Stats // server counters over the pass
	rt         rtDelta
}

// maxErrs bounds the failure messages a pass keeps.
const maxErrs = 5

// drive runs items through the server as a closed loop: connection c
// sends items c, c+conns, c+2·conns, … one at a time, each after the
// previous answer was checked. tr, when non-nil, records spans.
func drive(ctx context.Context, e *env, s spec, items []item, tr *tracer) pass {
	conns := len(e.clients)
	per := 1
	if s.online {
		per = sessionArrivals
	}
	lat := make([]float64, len(items)*per)
	okReq := make([]int, len(items)) // successful requests (arrivals) of item i
	ratio := make([]float64, len(items))
	flow := make([]float64, len(items))
	cached := make([]bool, len(items))
	errs := make([]error, len(items))
	answers := make([]answer, len(items))

	st0 := e.srv.Router().Stats()
	rt0 := readRuntime()
	prog := newProgress(len(lat))
	cpu0 := prog.marks[0].cpu
	var wg sync.WaitGroup
	for c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc := e.clients[c]
			for i := c; i < len(items); i += conns {
				if s.online {
					okReq[i], ratio[i], flow[i], errs[i] = runSession(ctx, wc, s, items[i], lat[i*per:(i+1)*per], tr, i, prog)
				} else {
					answers[i], errs[i] = runRequest(ctx, wc, items[i], &lat[i], tr, i)
					if errs[i] == nil {
						okReq[i] = 1
					}
					prog.done()
				}
			}
		}()
	}
	wg.Wait()
	p := pass{cpu: cpuTime() - cpu0, lat: lat, attempted: len(lat)}
	p.rps, p.cpuMS = prog.medians()
	p.rt = runtimeDelta(rt0, readRuntime())
	st1 := e.srv.Router().Stats()
	p.stats = statsDelta(st0, st1)

	if !s.online {
		omega := estimateAll(items, conns)
		for i, a := range answers {
			if errs[i] != nil {
				continue
			}
			ratio[i], flow[i], cached[i] = a.ratio, a.flow, a.cached
			if errs[i] = checkGuarantee(a, omega[items[i].in]); errs[i] != nil {
				okReq[i] = 0
			}
		}
	}

	// Sum in item order, so the quality means are exact run to run.
	var rsum, fsum float64
	checked := 0
	for i := range items {
		p.ok += okReq[i]
		if cached[i] {
			p.cached++
		}
		if errs[i] != nil {
			if len(p.errs) < maxErrs {
				p.errs = append(p.errs, fmt.Sprintf("request %d: %v", i, errs[i]))
			}
			continue
		}
		rsum += ratio[i]
		fsum += flow[i]
		checked++
	}
	if checked > 0 {
		p.ratioMean = rsum / float64(checked)
		p.flowMean = fsum / float64(checked)
	}
	return p
}

// window is the number of consecutive latency samples a percentile is
// taken over: at least 1000, so a window's p99 has at least 10 samples
// beyond it.
const window = 1000

// windows cuts n samples into equal consecutive windows of at least
// window samples (one window when n is smaller).
func windows(n int) int { return max(1, n/window) }

// windowedQuantile is the median over the windows of lat of each
// window's q-quantile: a burst of outside load moves the windows it
// hits, not the median.
func windowedQuantile(lat []float64, q float64) float64 {
	n := windows(len(lat))
	qs := make([]float64, n)
	for w := range qs {
		qs[w] = quantile(lat[w*len(lat)/n:(w+1)*len(lat)/n], q)
	}
	return median(qs)
}

// progress marks the time and process CPU at every block boundary of a
// pass's completions.
type progress struct {
	per   int64 // completions per block
	n     atomic.Int64
	marks [blocks + 1]struct {
		at  time.Time
		cpu time.Duration
	}
}

func newProgress(total int) *progress {
	p := &progress{per: int64(max(1, total/blocks))}
	p.marks[0].at, p.marks[0].cpu = time.Now(), cpuTime()
	return p
}

// done counts one completion. Each mark is written by the one
// goroutine whose completion reaches it and read after the pass.
func (p *progress) done() {
	n := p.n.Add(1)
	if k := n / p.per; n%p.per == 0 && k <= blocks {
		p.marks[k].at, p.marks[k].cpu = time.Now(), cpuTime()
	}
}

// medians returns the median over complete blocks of completions per
// second and CPU milliseconds per completion.
func (p *progress) medians() (rps, cpuMS float64) {
	var r, c []float64
	for k := 1; k <= blocks && !p.marks[k].at.IsZero(); k++ {
		dt := p.marks[k].at.Sub(p.marks[k-1].at).Seconds()
		r = append(r, float64(p.per)/dt)
		c = append(c, float64((p.marks[k].cpu-p.marks[k-1].cpu).Nanoseconds())/1e6/float64(p.per))
	}
	return median(r), median(c)
}

func statsDelta(a, b service.Stats) service.Stats {
	return service.Stats{
		Submitted:      b.Submitted - a.Submitted,
		Completed:      b.Completed - a.Completed,
		Errors:         b.Errors - a.Errors,
		ResultHits:     b.ResultHits - a.ResultHits,
		OracleHits:     b.OracleHits - a.OracleHits,
		OracleMisses:   b.OracleMisses - a.OracleMisses,
		OnlineOpened:   b.OnlineOpened - a.OnlineOpened,
		OnlineArrivals: b.OnlineArrivals - a.OnlineArrivals,
	}
}

// answer is what the answer check keeps of one offline answer.
type answer struct {
	ratio    float64 // Makespan / LowerBound
	flow     float64 // mean flow time
	makespan moldable.Time
	algo     core.Algorithm
	cached   bool
}

// runRequest is one submit (asking for the full schedule) and one
// blocking result, then the answer check. lat receives the
// client-side latency in milliseconds.
func runRequest(ctx context.Context, wc *netserve.WireClient, it item, lat *float64, tr *tracer, req int) (answer, error) {
	root := tr.open("request", req, -1)
	defer tr.close(root)
	t0 := time.Now()
	sp := tr.open("wire.submit", req, root)
	id, err := wc.Submit(ctx, it.in, core.Options{Algorithm: core.Auto}, true)
	tr.close(sp)
	var res service.Result
	if err == nil {
		sp = tr.open("wire.result", req, root)
		res, err = wc.Result(ctx, id, true, it.in)
		tr.close(sp)
	}
	*lat = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return answer{}, err
	}
	sp = tr.open("check", req, root)
	defer tr.close(sp)
	return checkAnswer(it.in, res)
}

// guarantee is the proven factor of an algorithm at ε = defaultEps.
func guarantee(a core.Algorithm) float64 {
	switch a {
	case core.FPTAS:
		return 1 + defaultEps
	case core.LT2:
		return 2
	}
	return 1.5 + defaultEps
}

// relTol absorbs floating-point rounding in the answer check.
const relTol = 1e-9

// checkAnswer verifies one offline answer as it arrives: the rebuilt
// schedule is valid for the instance and its makespan is the reported
// one. Every job is released at 0, so its flow time is its completion
// time.
func checkAnswer(in *moldable.Instance, res service.Result) (answer, error) {
	if res.Err != nil {
		return answer{}, res.Err
	}
	if res.Schedule == nil || res.Report == nil {
		return answer{}, errors.New("answer carries no schedule")
	}
	if err := schedule.Validate(in, res.Schedule, schedule.Options{}); err != nil {
		return answer{}, fmt.Errorf("invalid schedule: %w", err)
	}
	rep := res.Report
	mk := res.Schedule.Makespan()
	if math.Abs(mk-rep.Makespan) > relTol*math.Max(1, mk) {
		return answer{}, fmt.Errorf("schedule makespan %g, reported %g", mk, rep.Makespan)
	}
	if rep.LowerBound <= 0 {
		return answer{}, fmt.Errorf("non-positive lower bound %g", rep.LowerBound)
	}
	var sum moldable.Time
	for _, p := range res.Schedule.Placements {
		sum += p.End()
	}
	return answer{
		ratio: rep.Makespan / rep.LowerBound, flow: sum / moldable.Time(len(res.Schedule.Placements)),
		makespan: mk, algo: rep.Algorithm, cached: res.Cached,
	}, nil
}

// estimateAll computes ω of every distinct instance of items with
// workers goroutines.
func estimateAll(items []item, workers int) map[*moldable.Instance]moldable.Time {
	var ins []*moldable.Instance
	omega := map[*moldable.Instance]moldable.Time{}
	for _, it := range items {
		if _, ok := omega[it.in]; !ok {
			omega[it.in] = 0
			ins = append(ins, it.in)
		}
	}
	ws := make([]moldable.Time, len(ins))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(ins); i += workers {
				ws[i] = lt.Estimate(ins[i]).Omega
			}
		}()
	}
	wg.Wait()
	for i, in := range ins {
		omega[in] = ws[i]
	}
	return omega
}

// checkGuarantee is the rest of the answer check, run after the timed
// phase because the estimator is costly: the makespan is within the
// algorithm's guarantee of OPT ≤ 2ω (Eq. 2).
func checkGuarantee(a answer, w moldable.Time) error {
	if bound := guarantee(a.algo) * 2 * w; a.makespan > bound*(1+relTol) {
		return fmt.Errorf("%v makespan %g exceeds guarantee·2ω = %g", a.algo, a.makespan, bound)
	}
	return nil
}

// runSession opens an online session, sends its arrivals one by one
// (lat receives each arrival's latency in milliseconds) and drains it.
// The drain must finish every admitted job. It returns the number of
// arrivals that succeeded (all or none: a failed session fails every
// arrival), realized makespan over the offline lower bound, and the
// drained mean flow time.
func runSession(ctx context.Context, wc *netserve.WireClient, s spec, it item, lat []float64, tr *tracer, req int, prog *progress) (ok int, ratio, flow float64, err error) {
	root := tr.open("session", req, -1)
	defer tr.close(root)
	sp := tr.open("wire.open_online", req, root)
	id, err := wc.OpenOnline(ctx, online.Config{M: s.m, Policy: online.ReplanOnEpoch})
	tr.close(sp)
	if err != nil {
		return 0, 0, 0, err
	}
	for k, a := range it.trace {
		sp = tr.open("wire.arrive", req, root)
		t0 := time.Now()
		_, err := wc.Arrive(ctx, id, a)
		lat[k] = float64(time.Since(t0).Nanoseconds()) / 1e6
		tr.close(sp)
		prog.done()
		if err != nil {
			return 0, 0, 0, fmt.Errorf("arrival %d: %w", k, err)
		}
	}
	sp = tr.open("wire.drain", req, root)
	_, met, err := wc.Drain(ctx, id)
	tr.close(sp)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("drain: %w", err)
	}
	if met.Finished != len(it.trace) {
		return 0, 0, 0, fmt.Errorf("drain finished %d of %d admitted jobs", met.Finished, len(it.trace))
	}
	if met.Makespan < it.lb*(1-relTol) {
		return 0, 0, 0, fmt.Errorf("makespan %g below the offline lower bound %g", met.Makespan, it.lb)
	}
	return len(it.trace), met.Makespan / it.lb, float64(met.MeanFlow), nil
}
