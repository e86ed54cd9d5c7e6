package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/service"
)

// The ladder times, from outside and unloaded, the calls into each
// layer's public functions on a fixed sample of the workload's own
// requests, one span per call. Layer self time is a subtraction
// between rungs.
const (
	ladderInstances = 48   // timed instance samples (one more warms up)
	ladderArrivals  = 1024 // arrivals of the sampled session
	onlineM         = 1024 // machine of the sampled session
)

// ladderOut is what the ladder measured besides span durations.
type ladderOut struct {
	probes, oracleCalls []float64 // per sample instance
	replans             int       // per sampled session
	reqBytes, respBytes float64   // per request of the workload's kind
}

// instanceSample returns up to ladderInstances+1 distinct instances of
// the workload (the first warms up): its own timed instances, or for
// online, the timed sessions' jobs cut into n=256 instances on the
// session machine.
func instanceSample(s spec, set *requestSet) []*moldable.Instance {
	var out []*moldable.Instance
	if !s.online {
		seen := map[*moldable.Instance]bool{} // hit cycles over its pool
		for _, it := range set.timed {
			if !seen[it.in] && len(out) <= ladderInstances {
				seen[it.in] = true
				out = append(out, it.in)
			}
		}
		return out
	}
	var jobs []moldable.Job
	for _, it := range set.timed {
		for _, a := range it.trace {
			jobs = append(jobs, a.Job)
			if len(jobs) == jobsPerInstance {
				out = append(out, &moldable.Instance{M: s.m, Jobs: jobs})
				if len(out) == ladderInstances+1 {
					return out
				}
				jobs = nil
			}
		}
	}
	return out
}

// arrivalSample returns a session trace of ladderArrivals arrivals: the
// first timed session for online, a fresh trace of the same shape for
// the offline workloads.
func arrivalSample(s spec, set *requestSet, seed uint64) ([]online.Arrival, error) {
	if s.online {
		return set.timed[0].trace[:ladderArrivals], nil
	}
	it, err := newSession(spec{m: onlineM}, seed^0x5eed, nil)
	if err != nil {
		return nil, err
	}
	return it.trace[:ladderArrivals], nil
}

// runLadder runs every rung and records its spans in tr.
func runLadder(ctx context.Context, s spec, set *requestSet, seed uint64, tr *tracer) (ladderOut, error) {
	var out ladderOut
	ins := instanceSample(s, set)
	if len(ins) < 2 {
		return out, errors.New("ladder: request set too small to sample")
	}
	svc := service.New(service.Config{})
	defer svc.Close()
	runtime.GC()
	if err := inProcessRungs(ctx, ins, svc, tr, &out); err != nil {
		return out, err
	}
	runtime.GC()
	pipeB, err := pipeRung(ctx, ins, svc, tr)
	if err != nil {
		return out, err
	}
	e, err := startEnv(ctx, 1)
	if err != nil {
		return out, err
	}
	defer e.close()
	runtime.GC()
	if err := remoteRungs(ctx, ins, e, tr); err != nil {
		return out, err
	}
	trace, err := arrivalSample(s, set, seed)
	if err != nil {
		return out, err
	}
	runtime.GC()
	arrB, err := arrivalRungs(ctx, trace, svc, e, tr, &out)
	if err != nil {
		return out, err
	}
	out.reqBytes, out.respBytes = pipeB[0], pipeB[1]
	if s.online {
		out.reqBytes, out.respBytes = arrB[0], arrB[1]
	}
	return out, nil
}

// timed runs f under a span named name when i > 0; sample 0 warms up
// untimed.
func timed(tr *tracer, name string, i int, f func() error) error {
	if i == 0 {
		return f()
	}
	id := tr.open(name, i, -1)
	err := f()
	tr.close(id)
	return err
}

var auto = core.Options{Algorithm: core.Auto}

// inProcessRungs times the per-instance library calls: hashing,
// encode/decode, validation at the daemon's probe budget, the
// estimator and core with warm scratch, and the answer's validation;
// then, in a second loop so that their memo tables do not load the
// garbage collector during the first, the service's miss and hit
// paths.
func inProcessRungs(ctx context.Context, ins []*moldable.Instance, svc *service.Scheduler, tr *tracer, out *ladderOut) error {
	seed := maphash.MakeSeed()
	var ltsc lt.Scratch
	var csc core.Scratch
	type step struct {
		name string
		f    func() error
	}
	run := func(i int, steps []step) error {
		for _, st := range steps {
			if err := timed(tr, st.name, i, st.f); err != nil {
				return fmt.Errorf("ladder %s: %w", st.name, err)
			}
		}
		return nil
	}
	for i, in := range ins {
		var raw []byte
		var sched *schedule.Schedule
		err := run(i, []step{
			{"service.hash", func() error {
				if _, ok := service.HashInstance(seed, in); !ok {
					return errors.New("instance has no canonical hash")
				}
				return nil
			}},
			{"moldable.encode", func() (err error) { raw, err = moldable.MarshalInstance(in); return err }},
			{"moldable.decode", func() error { _, err := moldable.UnmarshalInstance(raw); return err }},
			{"moldable.validate", func() error { return in.ValidateCtx(ctx, probeBudget) }},
			{"lt.estimate", func() error { lt.EstimateScratch(in, &ltsc); return nil }},
			{"core.schedule", func() error {
				s, rep, err := core.ScheduleScratchCtx(ctx, in, auto, &csc)
				sched = s // owned by csc: valid until its next use, below
				if i > 0 {
					out.probes = append(out.probes, float64(rep.Iterations))
				}
				return err
			}},
			{"schedule.validate", func() error { return schedule.Validate(in, sched, schedule.Options{}) }},
		})
		if err != nil {
			return err
		}
		if i > 0 {
			counted, calls := moldable.Instrument(in)
			if _, _, err := core.ScheduleScratchCtx(ctx, counted, auto, &csc); err != nil {
				return fmt.Errorf("ladder oracle count: %w", err)
			}
			out.oracleCalls = append(out.oracleCalls, float64(calls()))
		}
	}
	runtime.GC()
	for i, in := range ins {
		err := run(i, []step{
			{"service.miss", func() error { return wantCached(svc.DoCtx(ctx, in, auto), false) }},
			{"service.hit", func() error { return wantCached(svc.DoCtx(ctx, in, auto), true) }},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func wantCached(r service.Result, cached bool) error {
	if r.Err != nil {
		return r.Err
	}
	if r.Cached != cached {
		return fmt.Errorf("answer cached=%v, want %v", r.Cached, cached)
	}
	return nil
}

// lineClient speaks the wire protocol over a byte stream one request at
// a time, counting the bytes of each request and response frame.
type lineClient struct {
	w io.Writer
	r *bufio.Reader
}

func (c *lineClient) roundTrip(req netserve.Request) (resp netserve.Response, reqB, respB int, err error) {
	b, err := json.Marshal(req)
	if err != nil {
		return resp, 0, 0, err
	}
	b = append(b, '\n')
	if _, err := c.w.Write(b); err != nil {
		return resp, 0, 0, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return resp, 0, 0, err
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, 0, 0, err
	}
	if resp.Code != "" {
		return resp, 0, 0, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	return resp, len(b), len(line), nil
}

// submitResult is what netserve.WireClient does for one instance:
// encode, submit asking for the full schedule, collect, rebuild.
func (c *lineClient) submitResult(in *moldable.Instance) (reqB, respB int, err error) {
	raw, err := moldable.MarshalInstance(in)
	if err != nil {
		return 0, 0, err
	}
	r, q1, p1, err := c.roundTrip(netserve.Request{Op: "submit", Tag: "p", Algo: core.Auto.String(), Instance: raw, Schedule: true})
	if err != nil {
		return 0, 0, err
	}
	r, q2, p2, err := c.roundTrip(netserve.Request{Op: "result", ID: r.ID, Wait: true})
	if err != nil {
		return 0, 0, err
	}
	if !r.Cached {
		return 0, 0, errors.New("pipe answer was not a cache hit")
	}
	if len(r.Allot) != in.N() || len(r.Starts) != in.N() {
		return 0, 0, errors.New("pipe answer carries no full schedule")
	}
	s := schedule.New(in.M)
	for j, p := range r.Allot {
		s.Add(j, p, r.Starts[j], in.Jobs[j].Time(p))
	}
	return q1 + q2, p1 + p2, nil
}

// servePipe runs netserve.ServeLines against b over in-memory pipes and
// returns a client for it and a stop function that waits for the loop.
func servePipe(ctx context.Context, b netserve.Backend) (*lineClient, func()) {
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = netserve.ServeLines(ctx, b, reqR, respW, netserve.ServeConfig{Probes: probeBudget})
		respW.Close()
	}()
	return &lineClient{w: reqW, r: bufio.NewReader(respR)}, func() {
		reqW.Close()
		_, _ = io.Copy(io.Discard, respR)
		<-done
	}
}

// pipeRung times submit+result of answered instances through
// ServeLines over io.Pipe, unloaded. It returns the mean request and
// response bytes of one exchange.
func pipeRung(ctx context.Context, ins []*moldable.Instance, svc *service.Scheduler, tr *tracer) ([2]float64, error) {
	c, stop := servePipe(ctx, svc)
	defer stop()
	var q, p, n int
	for i, in := range ins {
		err := timed(tr, "netserve.pipe", i, func() error {
			qb, pb, err := c.submitResult(in)
			q, p, n = q+qb, p+pb, n+1
			return err
		})
		if err != nil {
			return [2]float64{}, fmt.Errorf("ladder netserve.pipe: %w", err)
		}
	}
	return [2]float64{float64(q) / float64(n), float64(p) / float64(n)}, nil
}

// remoteRungs times, against a fresh TCP server: the first (missing)
// and second (hitting) submit+result with netserve.WireClient, the same
// hit as POST /rpc on the server's HTTP handler, and through
// repro.Client with WithDial.
func remoteRungs(ctx context.Context, ins []*moldable.Instance, e *env, tr *tracer) error {
	wc := e.clients[0]
	tcp := func(in *moldable.Instance, cached bool) func() error {
		return func() error {
			id, err := wc.Submit(ctx, in, auto, true)
			if err != nil {
				return err
			}
			r, err := wc.Result(ctx, id, true, in)
			if err != nil {
				return err
			}
			return wantCached(r, cached)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("ladder: listening for HTTP: %w", err)
	}
	hs := &http.Server{Handler: e.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-served
	}()
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	url := "http://" + ln.Addr().String() + "/rpc"

	cl := repro.New(repro.WithDial(e.addr))
	defer cl.Close()

	for i, in := range ins {
		steps := []struct {
			name string
			f    func() error
		}{
			{"netserve.tcp_miss", tcp(in, false)},
			{"netserve.tcp", tcp(in, true)},
			{"netserve.http", func() error { return postHit(ctx, hc, url, in) }},
			{"client.remote", func() error { _, _, err := cl.Schedule(ctx, in); return err }},
		}
		for _, st := range steps {
			if err := timed(tr, st.name, i, st.f); err != nil {
				return fmt.Errorf("ladder %s: %w", st.name, err)
			}
		}
	}
	return nil
}

// postHit sends submit, then result, each as one POST /rpc (tickets
// outlive the per-request protocol session), and expects a cache hit.
func postHit(ctx context.Context, hc *http.Client, url string, in *moldable.Instance) error {
	raw, err := moldable.MarshalInstance(in)
	if err != nil {
		return err
	}
	r, err := post(ctx, hc, url, netserve.Request{Op: "submit", Tag: "h", Algo: core.Auto.String(), Instance: raw, Schedule: true})
	if err != nil {
		return err
	}
	r, err = post(ctx, hc, url, netserve.Request{Op: "result", ID: r.ID, Wait: true})
	if err != nil {
		return err
	}
	if !r.Cached || len(r.Allot) != in.N() {
		return errors.New("HTTP answer was not a full cache hit")
	}
	return nil
}

func post(ctx context.Context, hc *http.Client, url string, req netserve.Request) (netserve.Response, error) {
	var resp netserve.Response
	b, err := json.Marshal(req)
	if err != nil {
		return resp, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return resp, err
	}
	res, err := hc.Do(hr)
	if err != nil {
		return resp, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		return resp, err
	}
	if err := json.Unmarshal(bytes.TrimSpace(body), &resp); err != nil {
		return resp, fmt.Errorf("decoding HTTP response: %w", err)
	}
	if resp.Code != "" {
		return resp, fmt.Errorf("%s: %s", resp.Code, resp.Error)
	}
	return resp, nil
}

// arrivalRungs replays the sampled session, after an untimed warm-up
// replay, through the online runtime in-process, through
// Scheduler.OnlineArrive, over ServeLines on a pipe (for frame sizes),
// and over TCP. Each arrival's span is named by whether the call closed
// an epoch (…_replan) or not. It returns the mean arrive request and
// response bytes.
func arrivalRungs(ctx context.Context, trace []online.Arrival, svc *service.Scheduler, e *env, tr *tracer, out *ladderOut) ([2]float64, error) {
	cfg := online.Config{M: onlineM, Policy: online.ReplanOnEpoch}
	replay := func(name string, open func() (func(online.Arrival) ([]online.Event, error), func() error, error), record bool) error {
		arrive, drain, err := open()
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		for k, a := range trace {
			t0 := time.Now()
			evs, err := arrive(a)
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("ladder %s arrival %d: %w", name, k, err)
			}
			if record {
				n := name
				if hasReplan(evs) {
					n += "_replan"
				}
				tr.record(n, k, -1, t0, t1)
			}
		}
		if err := drain(); err != nil {
			return fmt.Errorf("ladder %s drain: %w", name, err)
		}
		return nil
	}

	inproc := func() (func(online.Arrival) ([]online.Event, error), func() error, error) {
		rt, err := online.New(cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(a online.Arrival) ([]online.Event, error) { return rt.Arrive(ctx, a) },
			func() error {
				if _, err := rt.Drain(ctx); err != nil {
					return err
				}
				out.replans = rt.Metrics().Replans
				return nil
			}, nil
	}
	inService := func() (func(online.Arrival) ([]online.Event, error), func() error, error) {
		id, err := svc.OpenOnline(cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(a online.Arrival) ([]online.Event, error) { return svc.OnlineArrive(ctx, id, a) },
			func() error { _, _, err := svc.OnlineDrain(ctx, id); return err }, nil
	}
	wc := e.clients[0]
	wire := func() (func(online.Arrival) ([]online.Event, error), func() error, error) {
		id, err := wc.OpenOnline(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		return func(a online.Arrival) ([]online.Event, error) { return wc.Arrive(ctx, id, a) },
			func() error { _, _, err := wc.Drain(ctx, id); return err }, nil
	}
	c, stop := servePipe(ctx, svc)
	defer stop()
	var q, p int
	pipe := func() (func(online.Arrival) ([]online.Event, error), func() error, error) {
		r, _, _, err := c.roundTrip(netserve.Request{Op: "open_online", Tag: "o", M: cfg.M, Policy: cfg.Policy.String(), Algo: core.Auto.String()})
		if err != nil {
			return nil, nil, err
		}
		id := r.ID
		return func(a online.Arrival) ([]online.Event, error) {
				raw, err := moldable.MarshalJob(a.Job)
				if err != nil {
					return nil, err
				}
				_, qb, pb, err := c.roundTrip(netserve.Request{Op: "arrive", ID: id, T: a.T, Job: raw})
				q, p = q+qb, p+pb
				return nil, err
			}, func() error {
				_, _, _, err := c.roundTrip(netserve.Request{Op: "drain", ID: id})
				return err
			}, nil
	}
	for _, r := range []struct {
		name string
		open func() (func(online.Arrival) ([]online.Event, error), func() error, error)
	}{
		{"online.arrive", inproc},
		{"service.online_arrive", inService},
		{"netserve.arrive", wire},
	} {
		for pass := range 2 {
			if err := replay(r.name, r.open, pass == 1); err != nil {
				return [2]float64{}, err
			}
		}
	}
	if err := replay("netserve.pipe_arrive", pipe, false); err != nil {
		return [2]float64{}, err
	}
	n := float64(len(trace))
	return [2]float64{float64(q) / n, float64(p) / n}, nil
}

func hasReplan(evs []online.Event) bool {
	for _, ev := range evs {
		if ev.Kind == online.EvReplan {
			return true
		}
	}
	return false
}
