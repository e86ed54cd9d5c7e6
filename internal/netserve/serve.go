package netserve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/scherr"
	"repro/internal/service"
)

// traceSeq numbers server-assigned trace ids ("t-<n>") across every
// connection of the process, so ids stay unique under concurrency.
var traceSeq atomic.Uint64

func nextTraceID() string {
	var buf [24]byte
	return string(strconv.AppendUint(append(buf[:0], "t-"...), traceSeq.Add(1), 10))
}

// opIndex maps a wire op to its obs.OpLabels slot; unknown ops fall to
// the trailing "other" child.
func opIndex(op string) int {
	for i, l := range obs.OpLabels {
		if l == op {
			return i
		}
	}
	return len(obs.OpLabels) - 1
}

// ServeConfig parameterizes one protocol session.
type ServeConfig struct {
	// Probes is the monotonicity probe budget per submitted job
	// (0: exhaustive).
	Probes int
	// Limiter applies admission control and tenant quotas; nil admits
	// everything.
	Limiter *Limiter

	// known is the Server's table of validated instances, shared by its
	// connections; nil gives the session a table of its own.
	known *knownInstances
}

// ServeLines runs one protocol session: JSON-lines requests from in,
// JSON-lines responses to w, against backend b, until EOF, a shutdown
// request, or an unreadable stream. No request, however malformed,
// terminates the loop — malformed lines and unknown ops answer
// bad_request and the loop keeps serving.
//
// ctx is the session's base context: every per-request context
// (timeout_ms deadlines included) derives from it, so canceling ctx —
// a stopping server — stops in-flight work at its next probe. A closed
// input does not: ServeLines waits for its async handlers, and so for
// every ticket it submitted, before returning; it never writes to w
// afterwards.
//
// This one function is the protocol implementation for every
// transport: cmd/moldschedd runs it on stdin/stdout, Server runs it
// per TCP connection. The conformance suite (conformance_test.go)
// pins that the two transports stay byte-equivalent.
func ServeLines(ctx context.Context, b Backend, in io.Reader, w io.Writer, cfg ServeConfig) error {
	out := &writer{w: w, enc: json.NewEncoder(w)}
	if cfg.known == nil {
		cfg.known = newKnownInstances()
	}
	sess := &session{b: b, out: out, cfg: cfg, opened: make(map[uint64]bool), barrier: closedBarrier()}
	// Release every online session this stream opened and never
	// drained: a client that vanished mid-session would otherwise leak
	// its runtime and event log in the backend until process exit.
	defer sess.releaseSessions()
	sc := bufio.NewScanner(in)
	// Start at 64 KiB — every HTTP POST runs a session of its own, so
	// this is paid per request — and let the scanner grow the buffer on
	// demand up to the line cap: table-backed instances can be large.
	sc.Buffer(make([]byte, 0, 64<<10), 1<<28)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		req, err := decodeFrame(line, cfg.known)
		if err != nil {
			// A line too broken to parse still gets a trace id: the error
			// frame is correlatable like any other response.
			out.send(Response{Op: "error", Code: codeBadRequest, TraceID: nextTraceID(), Error: fmt.Sprintf("bad request: %v", err)})
			continue
		}
		if !sess.handle(ctx, req) {
			return nil
		}
	}
	// Wait for in-flight async handlers on EVERY exit path (the
	// shutdown case waits separately before acking): a handler that
	// outlives serve would write into w after the caller has moved on
	// — for an embedder reading a bytes.Buffer, a data race.
	sess.pending.Wait()
	return sc.Err()
}

// writer serializes concurrent response emission onto one stream.
type writer struct {
	mu    sync.Mutex
	w     io.Writer     //sched:guardedby mu
	frame respFrame     //sched:guardedby mu
	enc   *json.Encoder //sched:guardedby mu
	err   error         //sched:guardedby mu
}

// send encodes one response: in one pass by the frame appender, or by
// encoding/json when the appender declines; the bytes are the same
// either way. Write errors are latched, not fatal: a TCP peer that
// disappeared mid-response must not crash the server, and every later
// send on the session becomes a no-op. Every error
// response funnels through here, so this is also where the per-code
// error counters are fed (shed, quota, and unavailable counts fall out
// of the code dimension).
func (w *writer) send(r Response) {
	if r.Code != "" && obs.On() {
		obs.WireErrors.WithLabel(r.Code).Inc()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if w.frame.encode(&r) {
		_, w.err = w.w.Write(w.frame.b)
		if cap(w.frame.b) > maxPooledFrame {
			w.frame = respFrame{} // a huge schedule's buffer is not kept for the session's life
		}
		return
	}
	r.fill()
	w.err = w.enc.Encode(r)
}

// session is the per-connection protocol state: declared tenant, the
// online sessions opened here (released on disconnect), and which
// tickets asked for full schedules.
type session struct {
	b   Backend
	out *writer
	cfg ServeConfig

	tenant  string          // connection-declared tenant (hello); read-loop only
	opened  map[uint64]bool // online sessions opened on this connection; read-loop only
	pending sync.WaitGroup  // all async handlers
	// barrier closes when every submit read so far has finished its
	// handler (ticket assigned or error replied). The head of the chain
	// is touched by the read loop only; the channels carry the
	// cross-goroutine ordering (see the submit and result cases).
	barrier chan struct{}
	// wantSched marks tickets whose submit asked for the full
	// placement (Request.Schedule). Written by submit handlers, read
	// by result handlers — both off the read loop, hence a sync.Map.
	wantSched sync.Map // ticket id → bool
}

// send stamps the request's trace id onto the response and emits it.
// Handlers route every reply through here so the echo guarantee (each
// frame carries a trace_id) holds on all paths.
func (s *session) send(tid string, r Response) {
	r.TraceID = tid
	s.out.send(r)
}

// observe records one completed wire op in the per-op counters and
// latency histograms. Sync ops record on the read loop; the async
// submit and result-wait handlers record when their goroutine replies,
// so the histogram measures completion, not dispatch.
func (s *session) observe(op int, t0 time.Time) {
	if !obs.On() {
		return
	}
	obs.WireOps.At(op).Inc()
	obs.WireOpLatency.At(op).Observe(int64(time.Since(t0)))
}

// handle dispatches one request; false means shutdown.
func (s *session) handle(ctx context.Context, req Request) bool {
	if req.TraceID == "" {
		req.TraceID = nextTraceID()
	}
	t0 := time.Now()
	op := opIndex(req.Op)
	async := false
	switch req.Op {
	case "hello":
		// Bind (or re-bind) the connection's tenant. Cheap and
		// un-quota'd: it is how a tenant identifies itself.
		s.tenant = req.Tenant
		s.send(req.TraceID, Response{Op: "hello", Tag: req.Tag, Tenant: s.tenant})
	case "submit":
		if err := s.cfg.Limiter.takeToken(s.tenant); err != nil {
			s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, Code: wireCode(err), Error: err.Error()})
			break
		}
		// Validation (O(probes) per job) must not stall request
		// intake; handle off the read loop like result-wait. Clients
		// correlate the reply by tag. Each submit extends the barrier
		// chain: its link closes once its own handler AND every earlier
		// submit's are done.
		async = true
		prev := s.barrier
		next := make(chan struct{})
		s.barrier = next
		s.pending.Add(1)
		go func(req Request, tenant string) {
			defer s.pending.Done()
			s.handleSubmit(ctx, req, tenant)
			s.observe(op, t0)
			<-prev
			close(next)
		}(req, s.tenant)
	case "result":
		if req.Wait {
			// Waiting must not block the read loop: answer from a
			// goroutine; the response carries the id. Let submits
			// read before this request land first (the barrier
			// snapshot), so a sequential script (submit, then result
			// for its ticket) never races the async submit handler.
			async = true
			barrier := s.barrier
			s.pending.Add(1)
			go func(id uint64, tid string) {
				defer s.pending.Done()
				<-barrier
				res, ok := s.b.Wait(id)
				s.sendResult(tid, id, res, ok, true)
				s.observe(op, t0)
			}(req.ID, req.TraceID)
		} else {
			res, done, known := s.b.Poll(req.ID)
			s.sendResult(req.TraceID, req.ID, res, known, done)
		}
	case "open_online":
		s.handleOpenOnline(req)
	case "arrive":
		s.handleArrive(ctx, req)
	case "trace":
		evs, err := s.b.OnlineTrace(req.ID)
		if err != nil {
			s.send(req.TraceID, Response{Op: "trace", ID: req.ID, Code: wireCode(err), Error: err.Error()})
			break
		}
		s.send(req.TraceID, Response{Op: "trace", ID: req.ID, Events: wireEvents(evs)})
	case "drain":
		s.handleDrain(ctx, req)
	case "stats":
		st := s.b.Stats()
		resp := Response{Op: "stats", Tag: req.Tag, Stats: &st}
		if req.Trace {
			resp.Traces = wireTraces(obs.SnapshotTraces(64))
		}
		s.send(req.TraceID, resp)
	case "shutdown":
		s.pending.Wait()
		s.send(req.TraceID, Response{Op: "shutdown", Tag: req.Tag})
		s.observe(op, t0)
		return false
	default:
		s.send(req.TraceID, Response{Op: "error", Tag: req.Tag, Code: codeBadRequest, Error: fmt.Sprintf("unknown op %q", req.Op)})
	}
	if !async {
		s.observe(op, t0)
	}
	return true
}

// releaseSessions abandons every online session this connection opened
// and never drained. Runs after the read loop ends (EOF, disconnect,
// shutdown); ReleaseOnline is idempotent, so sessions that were
// properly drained are no-ops.
func (s *session) releaseSessions() {
	s.pending.Wait() // handlers may still be registering tickets
	for id := range s.opened {
		s.b.ReleaseOnline(id)
	}
}

// handleSubmit runs off the read loop; tenant is captured at dispatch
// because s.tenant is read-loop-only state (a concurrent "hello" could
// otherwise race the re-bind).
func (s *session) handleSubmit(ctx context.Context, req Request, tenant string) {
	algo, err := core.ParseAlgorithm(orDefault(req.Algo, "auto"))
	if err != nil {
		s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, Code: codeBadRequest, Error: err.Error()})
		return
	}
	in, err := req.instance()
	if err != nil {
		s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, Code: codeBadRequest, Error: fmt.Sprintf("bad instance: %v", err)})
		return
	}
	// Tag the request context so the scheduler's decision-trace ring
	// records which wire request each decision served
	// (docs/OBSERVABILITY.md).
	ctx = obs.WithTraceID(ctx, req.TraceID)
	// Per-submission deadline: created before validation so timeout_ms
	// bounds the monotonicity probing as well as the scheduling; the
	// context then travels with the ticket, so an expired deadline
	// abandons queued work and stops a running dual search at its next
	// probe. The watcher releases the timer as soon as the ticket
	// completes, whoever collects it.
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		// Clamp before converting: a huge timeout_ms (client shorthand
		// for "no deadline") would overflow time.Duration to a negative
		// value and cancel the submission instantly.
		ns := req.TimeoutMS * float64(time.Millisecond)
		d := time.Duration(math.MaxInt64)
		if ns < float64(math.MaxInt64) {
			d = time.Duration(ns)
		}
		ctx, cancel = context.WithTimeout(ctx, d)
	}
	// Admission: claim an in-flight slot before the expensive work
	// (validation included). A submission with a deadline queues for
	// capacity until the deadline arrives — deadline-based shedding —
	// while one without is shed immediately; both report "overloaded".
	if err := s.cfg.Limiter.acquire(ctx, tenant, req.TimeoutMS > 0); err != nil {
		if cancel != nil {
			cancel()
		}
		s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, Code: wireCode(err), Error: err.Error()})
		return
	}
	if err := s.cfg.known.validate(ctx, in, &req, s.cfg.Probes); err != nil {
		if cancel != nil {
			cancel()
		}
		s.cfg.Limiter.release(tenant)
		// Every validation failure is a client-input problem: keep the
		// typed codes (not_monotone, canceled, …) but never report
		// "internal" for structural errors like m < 1 — that reads as a
		// server fault.
		code := scherr.Code(err)
		if code == scherr.CodeInternal {
			code = codeBadRequest
		}
		s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, Code: code, Error: fmt.Sprintf("invalid instance: %v", err)})
		return
	}
	id := s.b.SubmitCtx(ctx, in, core.Options{Algorithm: algo, Eps: req.Eps, Validate: req.Validate})
	if req.Schedule {
		s.wantSched.Store(id, true)
	}
	// Hold the admission slot (and the deadline timer) until the
	// ticket completes, whoever collects it — in-flight means
	// submitted-but-unfinished, not merely enqueued.
	if done, ok := s.b.Done(id); ok {
		s.pending.Add(1)
		go func() {
			defer s.pending.Done()
			<-done
			s.cfg.Limiter.release(tenant)
			if cancel != nil {
				cancel()
			}
		}()
	} else {
		s.cfg.Limiter.release(tenant)
		if cancel != nil {
			cancel()
		}
	}
	s.send(req.TraceID, Response{Op: "submit", Tag: req.Tag, ID: id})
}

// handleOpenOnline creates an online session. Runs on the read loop:
// session ops are order-dependent (see docs/PROTOCOL.md).
func (s *session) handleOpenOnline(req Request) {
	if err := s.cfg.Limiter.takeToken(s.tenant); err != nil {
		s.send(req.TraceID, Response{Op: "open_online", Tag: req.Tag, Code: wireCode(err), Error: err.Error()})
		return
	}
	algo, err := core.ParseAlgorithm(orDefault(req.Algo, "auto"))
	if err != nil {
		s.send(req.TraceID, Response{Op: "open_online", Tag: req.Tag, Code: codeBadRequest, Error: err.Error()})
		return
	}
	policy, err := online.ParsePolicy(orDefault(req.Policy, "epoch"))
	if err != nil {
		s.send(req.TraceID, Response{Op: "open_online", Tag: req.Tag, Code: codeBadRequest, Error: err.Error()})
		return
	}
	id, err := s.b.OpenOnline(online.Config{
		M: req.M, Policy: policy, Algorithm: algo, Eps: req.Eps,
		EpochMin: moldable.Time(req.EpochMin), EpochGrow: req.EpochGrow,
	})
	if err != nil {
		code := wireCode(err)
		if code == scherr.CodeInternal {
			code = codeBadRequest // config problems are client input, not server faults
		}
		s.send(req.TraceID, Response{Op: "open_online", Tag: req.Tag, Code: code, Error: err.Error()})
		return
	}
	s.opened[id] = true
	s.send(req.TraceID, Response{Op: "open_online", Tag: req.Tag, ID: id})
}

// handleArrive admits one arrival into a session.
func (s *session) handleArrive(ctx context.Context, req Request) {
	if err := s.cfg.Limiter.takeToken(s.tenant); err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: wireCode(err), Error: err.Error()})
		return
	}
	if !req.hasJob() {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: codeBadRequest, Error: "arrive needs a job"})
		return
	}
	job, err := req.arrival()
	if err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: codeBadRequest, Error: fmt.Sprintf("bad job: %v", err)})
		return
	}
	// Same admission checks as submit: a non-monotone job must be
	// rejected at the door, not poison the session's planner later.
	// Probe over the session's machine size.
	m, err := s.b.OnlineMachine(req.ID)
	if err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: wireCode(err), Error: err.Error()})
		return
	}
	if err := moldable.CheckMonotone(job, m, s.cfg.Probes); err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: scherr.Code(err), Error: fmt.Sprintf("invalid job: %v", err)})
		return
	}
	if err := s.cfg.Limiter.acquire(ctx, s.tenant, false); err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: wireCode(err), Error: err.Error()})
		return
	}
	evs, err := s.b.OnlineArrive(obs.WithTraceID(ctx, req.TraceID), req.ID, online.Arrival{T: moldable.Time(req.T), Job: job})
	s.cfg.Limiter.release(s.tenant)
	if err != nil {
		s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Code: onlineCode(err), Error: err.Error(), Events: wireEvents(evs)})
		return
	}
	s.send(req.TraceID, Response{Op: "arrive", ID: req.ID, Events: wireEvents(evs)})
}

// handleDrain runs a session to completion and reports its metrics.
func (s *session) handleDrain(ctx context.Context, req Request) {
	if err := s.cfg.Limiter.acquire(ctx, s.tenant, false); err != nil {
		s.send(req.TraceID, Response{Op: "drain", ID: req.ID, Code: wireCode(err), Error: err.Error()})
		return
	}
	evs, met, err := s.b.OnlineDrain(obs.WithTraceID(ctx, req.TraceID), req.ID)
	s.cfg.Limiter.release(s.tenant)
	if err != nil {
		s.send(req.TraceID, Response{Op: "drain", ID: req.ID, Code: onlineCode(err), Error: err.Error(), Events: wireEvents(evs)})
		return
	}
	delete(s.opened, req.ID) // drained: nothing left to release on disconnect
	s.send(req.TraceID, Response{
		Op: "drain", ID: req.ID, Events: wireEvents(evs),
		Makespan: met.Makespan, MeanWait: float64(met.MeanWait), MeanFlow: float64(met.MeanFlow),
		MaxFlow: float64(met.MaxFlow), Util: met.Utilization,
		Replans: met.Replans, Fallbacks: met.Fallbacks, Finished: met.Finished,
	})
}

// onlineCode maps a session-op error to a wire code: unknown sessions
// get the ticket code, the serving-layer and typed taxonomies pass
// through, and runtime stream violations (out-of-order arrivals,
// arrival-after-drain) are client input.
func onlineCode(err error) string {
	if code := wireCode(err); code != scherr.CodeInternal {
		return code
	}
	return codeBadRequest
}

func (s *session) sendResult(tid string, id uint64, res service.Result, known, done bool) {
	if !known {
		s.send(tid, Response{Op: "result", ID: id, Code: codeUnknownTicket, Error: "unknown or already-collected ticket"})
		return
	}
	resp := Response{Op: "result", ID: id, Done: &done}
	if !done {
		s.send(tid, resp)
		return
	}
	_, wantSched := s.wantSched.LoadAndDelete(id)
	if res.Err != nil {
		resp.Error = res.Err.Error()
		resp.Code = wireCode(res.Err)
		s.send(tid, resp)
		return
	}
	resp.Cached = res.Cached
	rep := res.Report
	resp.Algorithm = rep.Algorithm.String()
	resp.Makespan = rep.Makespan
	resp.LowerBound = rep.LowerBound
	resp.Ratio = rep.Ratio
	resp.Iterations = rep.Iterations
	resp.ElapsedMS = float64(rep.Elapsed.Microseconds()) / 1000
	resp.sched, resp.withStarts = res.Schedule, wantSched
	s.send(tid, resp)
}

// closedBarrier is the chain's seed: with no submits read yet, a
// result-wait proceeds immediately.
func closedBarrier() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
