package repro

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/service"
)

// Typed errors of the scheduling stack, re-exported from
// internal/scherr so callers can branch with errors.Is/errors.As on
// this package alone:
//
//	ErrNotMonotone — the instance violates the monotone-job assumption
//	ErrRegime      — an algorithm was forced outside its proven regime
//	               (errors.As to *RegimeError for the violated bound)
//	ErrCanceled    — the context ended first; also matches the context
//	               cause (context.Canceled / context.DeadlineExceeded)
//	ErrBadEps      — accuracy parameter outside (0,1]
var (
	ErrNotMonotone = scherr.ErrNotMonotone
	ErrRegime      = scherr.ErrRegime
	ErrCanceled    = scherr.ErrCanceled
	ErrBadEps      = scherr.ErrBadEps
)

// Remote-serving errors, re-exported from internal/netserve. They only
// occur on clients built with WithDial:
//
//	ErrOverloaded  — the server shed the request (admission budget or
//	                 tenant quota exhausted)
//	ErrUnavailable — the connection or the server went away before
//	                 the request was answered
var (
	ErrOverloaded  = netserve.ErrOverloaded
	ErrUnavailable = netserve.ErrUnavailable
)

// RegimeError carries the violated regime bound; see scherr.RegimeError.
type RegimeError = scherr.RegimeError

// Result is the outcome of one instance in a streamed or batched call;
// see service.Result. Schedule and Report may be shared with the
// client's result cache — treat them as read-only.
type Result = service.Result

// EstimateResult is the Ludwig–Tiwari estimate; see lt.Result. Omega
// satisfies ω ≤ OPT ≤ 2ω.
type EstimateResult = lt.Result

// Online-arrivals types, re-exported from internal/online so RunOnline
// callers need only this package (plus internal/moldable for jobs).
type (
	// Arrival is one timestamped job arrival; see online.Arrival.
	Arrival = online.Arrival
	// OnlineEvent is one online-runtime transition; see online.Event.
	OnlineEvent = online.Event
	// OnlineMetrics summarizes a replayed stream; see online.Metrics.
	OnlineMetrics = online.Metrics
	// OnlinePolicy selects the replanning strategy; see online.Policy.
	OnlinePolicy = online.Policy
)

// Online policies (see online.Policy) and event kinds (online.EventKind).
const (
	ReplanOnEpoch   = online.ReplanOnEpoch
	ReplanOnArrival = online.ReplanOnArrival
	GreedyRigid     = online.Greedy

	EvArrive = online.EvArrive
	EvReplan = online.EvReplan
	EvStart  = online.EvStart
	EvFinish = online.EvFinish
	EvError  = online.EvError
)

// config collects client-level and per-call settings; Options mutate it.
type config struct {
	svc    service.Config
	opt    core.Options
	probes int
	// online holds the RunOnline settings (machine size, policy, epoch
	// rule); the planner algorithm and ε are taken from opt.
	online online.Config
	// dial/tenant select the remote transport (WithDial / WithTenant).
	dial   string
	tenant string
}

// Option configures New (all options) or a single call (the per-call
// subset: WithAlgorithm, WithEps, WithValidation, WithProbeBudget).
// Pool- and cache-sizing options are fixed at construction; applying
// one per call is a documented no-op, not an error.
type Option func(*config)

// WithWorkers sets the worker-pool size. n ≤ 0 (the default) selects
// runtime.GOMAXPROCS(0). Construction-time only.
func WithWorkers(n int) Option {
	return func(c *config) { c.svc.Workers = n }
}

// WithResultCache sets the bounded result cache's capacity (≤ 0 selects
// the default, 1024). Construction-time only.
func WithResultCache(capacity int) Option {
	return func(c *config) { c.svc.ResultCacheCap = capacity }
}

// WithoutResultCache disables the result cache, so structurally equal
// submissions recompute. Construction-time only.
func WithoutResultCache() Option {
	return func(c *config) { c.svc.NoResultCache = true }
}

// WithAlgorithm selects the scheduling algorithm (default Auto: the
// Theorem-2 FPTAS when m ≥ 16n/ε, the linear-time (3/2+ε) algorithm
// otherwise). Valid at construction (the client default) and per call.
func WithAlgorithm(a Algorithm) Option {
	return func(c *config) { c.opt.Algorithm = a }
}

// WithEps sets the accuracy parameter ε ∈ (0,1] (default 0.1). Valid at
// construction and per call; out-of-range values surface as ErrBadEps
// when the call runs.
func WithEps(eps float64) Option {
	return func(c *config) { c.opt.Eps = eps }
}

// WithValidation re-checks every produced schedule against its instance
// before returning it (a defense-in-depth toggle; the hot path skips
// it). Valid at construction and per call.
func WithValidation() Option {
	return func(c *config) { c.opt.Validate = true }
}

// WithProbeBudget sets how many processor counts Validate probes per
// job when checking monotonicity (default 256; ≤ 0 means the exhaustive
// O(m) scan). Valid at construction and per call.
func WithProbeBudget(n int) Option {
	return func(c *config) { c.probes = n }
}

// WithDial routes Schedule, ScheduleStream, RunOnline and Stats over
// the wire protocol to a moldschedd TCP listener at addr (see
// docs/PROTOCOL.md §Transport) instead of the in-process service. The
// connection is dialed once, lazily, on the first remote call and
// reused; concurrent first calls wait for that dial, each only as long
// as its own context allows. A failed dial or a lost connection
// surfaces as ErrUnavailable, shed requests as ErrOverloaded.
// Estimate, Validate and ValidateSchedule stay local — they need no
// serving stack. Construction-time only.
func WithDial(addr string) Option {
	return func(c *config) { c.dial = addr }
}

// WithTenant declares the tenant id sent in the connection's "hello"
// (the server's quota-bucket key). Only meaningful with WithDial.
// Construction-time only.
func WithTenant(id string) Option {
	return func(c *config) { c.tenant = id }
}

// WithMachines sets the machine size m for RunOnline. An arrival
// stream, unlike an instance, carries no machine — RunOnline errors
// without this option. Valid at construction and per call.
func WithMachines(m int) Option {
	return func(c *config) { c.online.M = m }
}

// WithPolicy selects the online replanning policy (default
// ReplanOnEpoch; see the online policy constants). Valid at
// construction and per call.
func WithPolicy(p OnlinePolicy) Option {
	return func(c *config) { c.online.Policy = p }
}

// WithEpochRule configures ReplanOnEpoch's doubling rule: epoch k may
// not close before min·grow^k after it opened (min 0 replans as soon
// as the machine drains; grow defaults to 2 and must be ≥ 1). Valid at
// construction and per call.
func WithEpochRule(min moldable.Time, grow float64) Option {
	return func(c *config) {
		c.online.EpochMin = min
		c.online.EpochGrow = grow
	}
}

// Client is the context-first entry point of the library: a handle over
// the serving stack (per-worker queues and a bounded result cache — see
// DESIGN.md §5) with cancellation threaded through every method down to
// the dual-search probe loops.
//
// Create with New, release with Close. All methods are safe for
// concurrent use. For one-shot use the zero-config client is cheap:
//
//	c := repro.New()
//	defer c.Close()
//	s, rep, err := c.Schedule(ctx, in)
type Client struct {
	svc    *service.Scheduler // nil on a WithDial client, which schedules remotely
	def    core.Options
	onl    online.Config
	probes int
	// streams tracks in-flight ScheduleStream submitter goroutines so
	// Close never races a Submit onto the already-closed pool (e.g.
	// after a consumer breaks out of a stream early).
	streams sync.WaitGroup

	// Remote transport (WithDial): the connection is dialed lazily on
	// the first remote call and reused for the client's lifetime. The
	// one-slot dialSem makes that dial single-flight; rmu is never held
	// across it, so a waiter gives up on its own ctx.
	dial    string
	tenant  string
	dialSem chan struct{}
	rmu     sync.Mutex
	remote  *netserve.WireClient //sched:guardedby rmu
	closed  bool                 //sched:guardedby rmu
}

// New creates a Client. Options set the pool and cache sizes and the
// per-call defaults (algorithm, ε, validation, probe budget). A
// WithDial client starts no local workers: the pool and cache options
// then size nothing.
func New(opts ...Option) *Client {
	cfg := config{probes: 256}
	for _, o := range opts {
		o(&cfg)
	}
	c := &Client{
		def: cfg.opt, onl: cfg.online,
		probes: cfg.probes, dial: cfg.dial, tenant: cfg.tenant,
		dialSem: make(chan struct{}, 1),
	}
	if c.dial == "" {
		c.svc = service.New(cfg.svc)
	}
	return c
}

// Close drains in-flight work, stops the workers, and closes the remote
// connection (if WithDial was used and a call dialed it). Close does
// not wait for a first dial still in flight: that call closes its own
// connection when the dial finishes, which its ctx bounds, and fails
// with ErrUnavailable. Methods must not be called after Close.
func (c *Client) Close() {
	c.rmu.Lock()
	if c.remote != nil {
		c.remote.Close() // fails in-flight remote calls promptly
		c.remote = nil
	}
	c.closed = true // a dial still in flight closes its own connection
	c.rmu.Unlock()
	c.streams.Wait()
	if c.svc != nil {
		c.svc.Close()
	}
}

// wire returns the client's remote connection, dialing it (and sending
// the tenant hello) on first use. One call at a time dials, holding
// dialSem under its own ctx; the others wait for the slot or their own
// ctx, whichever ends first. rmu guards only the reads and the install,
// so it is never held across the dial. A dial that finishes after
// Close closes its connection.
func (c *Client) wire(ctx context.Context) (*netserve.WireClient, error) {
	if wc, err := c.installed(); wc != nil || err != nil {
		return wc, err
	}
	select {
	case c.dialSem <- struct{}{}:
	case <-ctx.Done():
		return nil, scherr.Canceled(ctx.Err())
	}
	defer func() { <-c.dialSem }()
	if wc, err := c.installed(); wc != nil || err != nil {
		return wc, err // dialed by the previous slot holder, or closed
	}
	wc, err := netserve.Dial(ctx, c.dial)
	if err != nil {
		return nil, err
	}
	if c.tenant != "" {
		if err := wc.Hello(ctx, c.tenant); err != nil {
			wc.Close()
			return nil, err
		}
	}
	c.rmu.Lock()
	closed := c.closed
	if !closed {
		c.remote = wc
	}
	c.rmu.Unlock()
	if closed {
		wc.Close()
		return nil, errClientClosed
	}
	return wc, nil
}

// installed returns the installed connection, or errClientClosed after
// Close, or neither when no connection has been dialed yet.
func (c *Client) installed() (*netserve.WireClient, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.closed {
		return nil, errClientClosed
	}
	return c.remote, nil
}

var errClientClosed = fmt.Errorf("%w: client closed", ErrUnavailable)

// call merges the client defaults with per-call options.
func (c *Client) call(opts []Option) (core.Options, int) {
	cfg := c.mergecall(opts)
	return cfg.opt, cfg.probes
}

func (c *Client) mergecall(opts []Option) config {
	cfg := config{opt: c.def, online: c.onl, probes: c.probes}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Schedule solves one instance under ctx: cancellation and deadlines
// are observed between dual-search probes, and a canceled run returns
// an error matching ErrCanceled. Structurally identical submissions are
// answered from the result cache. The instance is validated first,
// as the server validates a remote submission, so a non-monotone job
// fails with ErrNotMonotone. The instance must not be mutated
// afterwards.
func (c *Client) Schedule(ctx context.Context, in *moldable.Instance, opts ...Option) (*ScheduleResult, *Report, error) {
	opt, probes := c.call(opts)
	if c.dial != "" {
		r := c.remoteOne(ctx, in, opt)
		return r.Schedule, r.Report, r.Err
	}
	if err := in.ValidateCtx(ctx, probes); err != nil {
		return nil, nil, err
	}
	r := c.svc.DoCtx(ctx, in, opt)
	return r.Schedule, r.Report, r.Err
}

// remoteOne runs one instance over the wire: submit (asking for the
// full schedule), then a blocking result. Transport failures land on
// Result.Err so stream consumers get the same per-instance accounting
// as the local path.
func (c *Client) remoteOne(ctx context.Context, in *moldable.Instance, opt core.Options) Result {
	wc, err := c.wire(ctx)
	if err != nil {
		return Result{Err: err}
	}
	id, err := wc.Submit(ctx, in, opt, true)
	if err != nil {
		return Result{Err: err}
	}
	r, err := wc.Result(ctx, id, true, in)
	if err != nil {
		return Result{Err: err}
	}
	return r
}

// ScheduleStream schedules every instance on the client's pool and
// yields (index, Result) pairs in completion order — the first results
// arrive while later instances are still computing. The stream ends
// after len(ins) pairs, or earlier if the consumer breaks.
//
// Cancellation: when ctx ends, no further instance starts computing;
// instances already running stop at their next dual probe; and every
// unstarted instance yields a Result whose Err matches ErrCanceled.
// The stream still yields exactly one pair per instance, so a consumer
// ranging to the end always gets a full accounting. Breaking out of the
// loop early does not leak goroutines: pending work is collected in the
// background and released by Close.
func (c *Client) ScheduleStream(ctx context.Context, ins []*moldable.Instance, opts ...Option) iter.Seq2[int, Result] {
	opt, probes := c.call(opts)
	if c.dial != "" {
		return c.remoteStream(ctx, ins, opt)
	}
	return func(yield func(int, Result) bool) {
		n := len(ins)
		type completion struct {
			i int
			r Result
		}
		// Buffered to n: collector goroutines never block, so an early
		// break by the consumer cannot strand them.
		ch := make(chan completion, n)
		// Submit from a goroutine: a submission blocked on a full shard
		// queue must not delay the consumer, which should be receiving
		// the first completions while the tail is still being enqueued.
		// Close waits for this goroutine (c.streams), so breaking out of
		// the stream and closing the client immediately is safe.
		c.streams.Add(1)
		go func() {
			defer c.streams.Done()
			for i, in := range ins {
				if err := in.ValidateCtx(ctx, probes); err != nil {
					ch <- completion{i, Result{Err: err}}
					continue
				}
				id := c.svc.SubmitCtx(ctx, in, opt)
				// Tickets that completed during SubmitCtx itself (result-
				// cache hits, pre-canceled contexts) are collected inline:
				// left to a collector goroutine, a long cache-hot burst
				// could out-run the service's uncollected-ticket retention
				// and lose results.
				if r, done, known := c.svc.Poll(id); done && known {
					ch <- completion{i, r}
					continue
				}
				go func(i int, id uint64) {
					r, ok := c.svc.Wait(id)
					if !ok {
						// Only possible if the ticket aged out of the
						// retention window before we collected it.
						r = Result{Err: scherr.Canceled(nil)}
					}
					ch <- completion{i, r}
				}(i, id)
			}
		}()
		for done := 0; done < n; done++ {
			cpl := <-ch
			if !yield(cpl.i, cpl.r) {
				return
			}
		}
	}
}

// remoteStream is ScheduleStream over the wire: one submit+result pair
// per instance, concurrently, yielding in completion order. The same
// contract holds — exactly one Result per instance, early breaks leak
// nothing (pending collectors drain into the buffered channel and are
// joined by Close).
func (c *Client) remoteStream(ctx context.Context, ins []*moldable.Instance, opt core.Options) iter.Seq2[int, Result] {
	return func(yield func(int, Result) bool) {
		n := len(ins)
		type completion struct {
			i int
			r Result
		}
		ch := make(chan completion, n)
		for i, in := range ins {
			c.streams.Add(1)
			go func(i int, in *moldable.Instance) {
				defer c.streams.Done()
				ch <- completion{i, c.remoteOne(ctx, in, opt)}
			}(i, in)
		}
		for done := 0; done < n; done++ {
			cpl := <-ch
			if !yield(cpl.i, cpl.r) {
				return
			}
		}
	}
}

// RunOnline replays a stream of timestamped job arrivals through the
// event-driven online runtime (internal/online; DESIGN.md §7): arrivals
// are accumulated into epochs, each epoch's pending set is replanned
// with the same scratch-pooled oracle the batch path uses, and jobs are
// dispatched work-conservingly onto an m-processor machine. The machine
// size is required (WithMachines); WithPolicy selects the strategy
// (ReplanOnEpoch by default, ReplanOnArrival, or the rigid GreedyRigid
// baseline), WithEpochRule its batch-accumulation doubling rule, and
// WithAlgorithm/WithEps the per-epoch planner. A pinned algorithm
// outside its proven regime for some epoch falls back (MRT, then LT2)
// rather than failing — the substitution is flagged on that replan
// event.
//
// The returned sequence yields (event index, event) pairs in
// non-decreasing event-time order: the arrivals are consumed lazily as
// the consumer ranges, and after the stream ends the runtime drains
// (every admitted job planned and run to completion). Configuration
// problems (missing machine size, bad ε) surface on the error return
// before any arrival is consumed. Mid-stream failures — a canceled
// ctx, out-of-order arrival timestamps, a non-monotone job (matching
// ErrNotMonotone), a planner error — terminate
// the sequence with one final event of kind EvError carrying the cause
// (matching ErrCanceled when ctx ended first). Ranging the sequence
// multiple times is not supported; breaking out early releases the
// arrival source without leaking goroutines.
func (c *Client) RunOnline(ctx context.Context, arrivals iter.Seq[Arrival], opts ...Option) (iter.Seq2[int, OnlineEvent], error) {
	cfg := c.mergecall(opts)
	ocfg := cfg.online
	ocfg.Algorithm = cfg.opt.Algorithm
	ocfg.Eps = cfg.opt.Eps
	if c.dial != "" {
		return c.remoteOnline(ctx, arrivals, ocfg)
	}
	rt, err := online.New(ocfg)
	if err != nil {
		return nil, err
	}
	// Admit an arrival as the server does: a non-monotone job fails
	// with ErrNotMonotone before it reaches the planner.
	arrive := func(ctx context.Context, a Arrival) ([]OnlineEvent, error) {
		if a.Job != nil {
			if err := moldable.CheckMonotone(a.Job, ocfg.M, cfg.probes); err != nil {
				return nil, err
			}
		}
		return rt.Arrive(ctx, a)
	}
	return onlineEvents(ctx, arrivals, arrive, rt.Drain), nil
}

// onlineEvents is the event sequence both RunOnline paths return:
// arrivals are pulled lazily and fed to arrive, then drain finishes the
// run. Events are numbered in yield order, and the first failure ends
// the sequence with one EvError event at the last event's time.
func onlineEvents(ctx context.Context, arrivals iter.Seq[Arrival],
	arrive func(context.Context, Arrival) ([]OnlineEvent, error),
	drain func(context.Context) ([]OnlineEvent, error)) iter.Seq2[int, OnlineEvent] {
	return func(yield func(int, OnlineEvent) bool) {
		seq := 0
		last := moldable.Time(0)
		emit := func(evs []OnlineEvent) bool {
			for _, e := range evs {
				if !yield(seq, e) {
					return false
				}
				seq++
				last = e.T
			}
			return true
		}
		fail := func(err error) {
			yield(seq, OnlineEvent{T: last, Kind: online.EvError, Job: -1, Err: err})
		}
		next, stop := iter.Pull(arrivals)
		defer stop()
		for {
			if err := ctx.Err(); err != nil {
				fail(scherr.Canceled(err))
				return
			}
			a, ok := next()
			if !ok {
				break
			}
			evs, err := arrive(ctx, a)
			if !emit(evs) {
				return
			}
			if err != nil {
				fail(err)
				return
			}
		}
		evs, err := drain(ctx)
		if !emit(evs) {
			return
		}
		if err != nil {
			fail(err)
		}
	}
}

// remoteOnline is RunOnline over the wire: the session lives on the
// server, arrivals are relayed one request per arrival, and
// the drain both finishes the run and releases the remote session. The
// event/error contract matches the local path. Breaking out early
// leaves the remote session to the server's cleanup (released when this
// client closes its connection, or reaped when idle).
func (c *Client) remoteOnline(ctx context.Context, arrivals iter.Seq[Arrival], ocfg online.Config) (iter.Seq2[int, OnlineEvent], error) {
	wc, err := c.wire(ctx)
	if err != nil {
		return nil, err
	}
	// Open synchronously so configuration problems (missing machine
	// size, bad ε) surface here, before any arrival is consumed.
	id, err := wc.OpenOnline(ctx, ocfg)
	if err != nil {
		return nil, err
	}
	arrive := func(ctx context.Context, a Arrival) ([]OnlineEvent, error) { return wc.Arrive(ctx, id, a) }
	drain := func(ctx context.Context) ([]OnlineEvent, error) {
		evs, _, err := wc.Drain(ctx, id)
		return evs, err
	}
	return onlineEvents(ctx, arrivals, arrive, drain), nil
}

// Estimate computes the Ludwig–Tiwari estimate ω with ω ≤ OPT ≤ 2ω in
// O(n log²m), without building a schedule.
func (c *Client) Estimate(ctx context.Context, in *moldable.Instance) (EstimateResult, error) {
	if err := ctx.Err(); err != nil {
		return EstimateResult{}, scherr.Canceled(err)
	}
	return lt.Estimate(in), nil
}

// Validate checks the instance against the model's preconditions: m ≥ 1,
// at least one job, every job monotone (probed per the client's probe
// budget; see WithProbeBudget). Violations match ErrNotMonotone; a
// canceled context matches ErrCanceled.
func (c *Client) Validate(ctx context.Context, in *moldable.Instance, opts ...Option) error {
	_, probes := c.call(opts)
	return in.ValidateCtx(ctx, probes)
}

// ValidateSchedule checks a produced schedule against its instance
// (feasibility, completeness, makespan accounting).
func (c *Client) ValidateSchedule(ctx context.Context, in *moldable.Instance, s *schedule.Schedule) error {
	if err := ctx.Err(); err != nil {
		return scherr.Canceled(err)
	}
	return schedule.Validate(in, s, schedule.Options{})
}

// Stats snapshots the serving counters (submissions, cache hits; see
// service.Stats) of whichever stack this client actually uses: the
// remote server's aggregate (WithDial) or the local service's.
func (c *Client) Stats(ctx context.Context) (service.Stats, error) {
	if c.dial != "" {
		wc, err := c.wire(ctx)
		if err != nil {
			return service.Stats{}, err
		}
		return wc.Stats(ctx)
	}
	return c.svc.Stats(), nil
}
