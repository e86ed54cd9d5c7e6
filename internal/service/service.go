// Package service is the serving layer over core.ScheduleScratchCtx: a
// long-running, high-throughput batch scheduling subsystem (see
// DESIGN.md §5). It composes two mechanisms, both keyed by the same
// canonical instance hash:
//
//   - a bounded result cache: structurally identical (instance,
//     options) submissions are answered without scheduling at all;
//   - one bounded FIFO queue per worker goroutine, chosen by the
//     instance hash: duplicate submissions land on one worker in order,
//     so a burst of the same instance computes once and then hits the
//     cache instead of stampeding.
//
// Each worker goroutine owns a core.Scratch reused across all
// submissions it runs, so the scheduling hot path allocates nothing
// after warm-up (DESIGN.md §6); results are cloned at this boundary
// before they escape into the cache or to callers.
//
// Submissions are asynchronous (SubmitCtx returns a ticket;
// Wait/Poll collect, Done observes) with synchronous
// conveniences (DoCtx, DoBatchCtx) on top. SubmitCtx carries a
// per-submission context — deadline included — all the way into the
// dual-search probe loops; interrupted submissions complete with
// errors matching scherr.ErrCanceled and are never cached.
// cmd/moldschedd exposes this package as a JSON-lines daemon; the
// repro.Client is the in-process public face.
package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// Config sizes the scheduler. The zero value is a sensible default.
type Config struct {
	Workers        int  // worker goroutines; ≤ 0 selects GOMAXPROCS
	ResultCacheCap int  // max cached results; ≤ 0 selects 1024
	TicketCap      int  // max completed-but-uncollected tickets retained; ≤ 0 selects 4096
	NoResultCache  bool // disable the result cache
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ResultCacheCap <= 0 {
		c.ResultCacheCap = 1024
	}
	if c.TicketCap <= 0 {
		c.TicketCap = 4096
	}
	return c
}

// Result is the outcome of one submission. Schedule and Report may be
// shared with the result cache and with other callers (the first
// computation's pointers are the ones cached); treat both as read-only
// regardless of Cached. Use Schedule.Clone when mutation is needed.
type Result struct {
	Schedule *schedule.Schedule
	Report   *core.Report
	Err      error
	Cached   bool // served from the result cache
}

// Stats is a snapshot of the scheduler's counters. The JSON names are
// part of the moldschedd wire protocol.
type Stats struct {
	Submitted  int64 `json:"submitted"`   // total submissions
	Completed  int64 `json:"completed"`   // finished submissions (including cache hits and errors)
	Pending    int64 `json:"pending"`     // submitted but not yet finished
	Errors     int64 `json:"errors"`      // submissions that finished with an error
	ResultHits int64 `json:"result_hits"` // submissions answered from the result cache

	// OracleHits, OracleMisses and MemoizedInstances are always 0: the
	// service memoizes no oracle. They stay so that the stats frame of
	// the wire protocol keeps its members.
	//
	// Deprecated: always 0.
	OracleHits int64 `json:"oracle_hits"`
	// Deprecated: always 0; see OracleHits.
	OracleMisses int64 `json:"oracle_misses"`
	// Deprecated: always 0; see OracleHits.
	MemoizedInstances int `json:"memoized_instances"`

	CachedResults int `json:"cached_results"` // results currently retained in the result cache

	OnlineSessions int   `json:"online_sessions"` // online sessions currently open
	OnlineOpened   int64 `json:"online_opened"`   // online sessions ever opened
	OnlineArrivals int64 `json:"online_arrivals"` // arrivals admitted across all online sessions
}

// Scheduler is the service. Create with New, release with Close. All
// methods are safe for concurrent use.
type Scheduler struct {
	cfg     Config
	h       hasher
	queues  []chan job // one per worker goroutine, chosen by instance key
	workers sync.WaitGroup
	closing sync.Once
	results *resultCache
	tasks   sync.Map    // ticket → *task
	onlines sync.Map    // ticket → *onlineSession (see online.go)
	retired chan uint64 // FIFO of completed tickets, bounding uncollected retention
	nextID  atomic.Uint64

	submitted, completed, failures, resultHits atomic.Int64
	onlineOpened, onlineArrivals               atomic.Int64
}

type task struct {
	res  Result
	done chan struct{}
}

// job is one queued submission: everything run needs.
type job struct {
	ctx       context.Context
	id        uint64
	t         *task
	in        *moldable.Instance
	opt       core.Options
	key, rkey uint64
	canon     bool
}

// queueCap bounds each worker's queue; beyond it SubmitCtx blocks. It
// is deep enough to absorb a burst of submissions from many
// connections, and shallow enough that a flood backs up into the
// submitters instead of into memory.
const queueCap = 256

// New starts a scheduler.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:     cfg,
		h:       newHasher(),
		queues:  make([]chan job, cfg.Workers),
		results: newResultCache(cfg.ResultCacheCap),
		retired: make(chan uint64, cfg.TicketCap),
	}
	for i := range s.queues {
		q := make(chan job, queueCap)
		s.queues[i] = q
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			s.work(q)
		}()
	}
	return s
}

// work runs one worker: its queue's jobs in FIFO order, all on one
// core.Scratch, so the scheduling hot path stops allocating after
// warm-up.
func (s *Scheduler) work(q <-chan job) {
	sc := core.NewScratch()
	for j := range q {
		s.run(j, sc)
	}
}

// enqueue sends j to its key's worker, blocking while that queue is
// full. Fibonacci hashing spreads dense sequential keys (ticket ids)
// evenly.
func (s *Scheduler) enqueue(j job) {
	s.queues[(j.key*0x9e3779b97f4a7c15)%uint64(len(s.queues))] <- j
}

// Close runs the queued work to completion and stops the workers.
// SubmitCtx after Close panics; pending tickets remain collectable.
// Idempotent.
func (s *Scheduler) Close() {
	s.closing.Do(func() {
		for _, q := range s.queues {
			close(q)
		}
	})
	s.workers.Wait()
}

// SubmitCtx enqueues the instance and returns a ticket for Wait/Poll.
// The instance must not be mutated afterwards. Result-cache hits
// complete the ticket immediately without touching the queues.
//
// Completed results are retained until collected, up to TicketCap
// uncollected tickets; beyond that the oldest uncollected results are
// dropped (their tickets then report unknown). Fire-and-forget callers
// therefore don't leak; callers that collect always see their result
// if they stay within TicketCap of the completion front.
//
// The deadline or cancellation of ctx travels with the ticket. A submission whose context ends
// while it is still queued is abandoned without scheduling; one whose
// context ends mid-run stops at the next dual probe. Either way the
// ticket completes with an error matching scherr.ErrCanceled, so
// Wait/Poll callers always see a result. Canceled results are never
// cached. A result-cache hit still answers a live context immediately.
func (s *Scheduler) SubmitCtx(ctx context.Context, in *moldable.Instance, opt core.Options) uint64 {
	id, _ := s.submit(ctx, in, opt)
	return id
}

// submit is SubmitCtx that also returns the ticket's task, so that a
// synchronous caller waits on the task itself: the ticket may age out
// of the retention FIFO before the caller could look it up.
func (s *Scheduler) submit(ctx context.Context, in *moldable.Instance, opt core.Options) (uint64, *task) {
	id := s.nextID.Add(1)
	t := &task{done: make(chan struct{})}
	s.tasks.Store(id, t)
	s.submitted.Add(1)
	if obs.On() {
		obs.ServiceSubmitted.Inc()
	}

	key, canon := s.h.instanceKey(in)
	j := job{ctx: ctx, id: id, t: t, in: in, opt: opt, key: key, canon: canon}
	if canon {
		j.rkey = s.h.resultKey(key, opt)
	} else {
		// No canonical hash: spread by ticket so unhashable submissions
		// don't all serialize onto one worker.
		j.key = id
	}
	if s.cached(j) {
		return id, t
	}
	if err := ctx.Err(); err != nil {
		s.finish(id, t, Result{Err: scherr.Canceled(err)})
		return id, t
	}
	s.enqueue(j)
	return id, t
}

// cached completes j from the result cache if the cache holds its
// result, reporting whether it did.
func (s *Scheduler) cached(j job) bool {
	if !j.canon || s.cfg.NoResultCache {
		return false
	}
	r, ok := s.results.get(j.rkey)
	if !ok {
		return false
	}
	r.Cached = true
	s.resultHits.Add(1)
	if obs.On() {
		obs.ServiceResultHits.Inc()
	}
	s.finish(j.id, j.t, r)
	return true
}

// run executes one submission on the worker that owns sc.
func (s *Scheduler) run(j job, sc *core.Scratch) {
	// Abandon work whose caller has already given up: the deadline ended
	// while this submission sat in the queue.
	if err := j.ctx.Err(); err != nil {
		s.finish(j.id, j.t, Result{Err: scherr.Canceled(err)})
		return
	}
	// Re-check the cache: a key-mate submitted moments earlier may have
	// just computed this exact result (key affinity serialized us
	// behind it).
	if s.cached(j) {
		return
	}
	// The worker's scratch owns the produced schedule, so clone it
	// before the result escapes into the cache or to callers.
	sched, rep, err := core.ScheduleScratchCtx(j.ctx, j.in, j.opt, sc)
	// Like core.ScheduleCtx, the report is attached unconditionally:
	// zero-valued for precondition failures, populated as far as the
	// call got otherwise. Success is signalled by Err alone.
	repp := new(core.Report)
	*repp = rep
	if sched != nil {
		sched = sched.Clone()
	}
	r := Result{Schedule: sched, Report: repp, Err: err}
	if err == nil && j.canon && !s.cfg.NoResultCache {
		s.results.put(j.rkey, r)
	}
	s.finish(j.id, j.t, r)
}

func (s *Scheduler) finish(id uint64, t *task, r Result) {
	if r.Err != nil {
		s.failures.Add(1)
		if obs.On() {
			obs.ServiceErrors.Inc()
		}
	}
	t.res = r
	s.completed.Add(1)
	if obs.On() {
		obs.ServiceCompleted.Inc()
	}
	close(t.done)
	// Bound completed-but-uncollected retention: push this ticket onto
	// the retirement FIFO, evicting the oldest when full. Evicting a
	// ticket that was already collected (Wait/Poll deleted it) is a
	// harmless no-op.
	for {
		select {
		case s.retired <- id:
			return
		default:
			select {
			case old := <-s.retired:
				s.tasks.Delete(old)
			default:
			}
		}
	}
}

// Wait blocks until the ticket completes and returns its result,
// releasing the ticket. Unknown (or already-collected) tickets return
// ok=false.
func (s *Scheduler) Wait(id uint64) (Result, bool) {
	v, ok := s.tasks.Load(id)
	if !ok {
		return Result{}, false
	}
	t := v.(*task)
	<-t.done
	s.tasks.Delete(id)
	return t.res, true
}

// Done returns a channel that is closed when the ticket completes,
// without collecting or releasing it — the observer's sibling of
// Wait/Poll, for callers that must react to completion (release a
// deadline timer, update a gauge) while someone else collects the
// result. Unknown tickets return ok=false.
func (s *Scheduler) Done(id uint64) (<-chan struct{}, bool) {
	v, ok := s.tasks.Load(id)
	if !ok {
		return nil, false
	}
	return v.(*task).done, true
}

// Poll returns the ticket's result without blocking. done reports
// completion (the ticket is released when done); known distinguishes a
// pending ticket from an unknown one.
func (s *Scheduler) Poll(id uint64) (res Result, done, known bool) {
	v, ok := s.tasks.Load(id)
	if !ok {
		return Result{}, false, false
	}
	t := v.(*task)
	select {
	case <-t.done:
		s.tasks.Delete(id)
		return t.res, true, true
	default:
		return Result{}, false, true
	}
}

// DoCtx schedules synchronously through the service (cache and queue
// affinity included) under a per-submission context: the work itself
// carries ctx (deadline included) and the wait is bounded by it too —
// when ctx
// ends while the submission is still queued behind other work, DoCtx
// returns an ErrCanceled result immediately instead of waiting for the
// worker to reach (and then abandon) the task.
func (s *Scheduler) DoCtx(ctx context.Context, in *moldable.Instance, opt core.Options) Result {
	id, t := s.submit(ctx, in, opt)
	return s.wait(ctx, id, t)
}

// wait returns t's result once it completes, releasing ticket id, or
// an ErrCanceled result when ctx ends first; the ticket then stays
// collectable and the submission runs on under its own context.
func (s *Scheduler) wait(ctx context.Context, id uint64, t *task) Result {
	select {
	case <-t.done:
		s.tasks.Delete(id)
		return t.res
	case <-ctx.Done():
		return Result{Err: scherr.Canceled(ctx.Err())}
	}
}

// DoBatchCtx submits every instance under one shared context and
// waits for all results, in order: a fan-out over the workers plus dedup
// and result caching. A cancel or deadline mid-batch completes the remaining submissions with ErrCanceled
// results (already-finished ones keep their results), never a short
// slice. The waits are ctx-bounded, so the call returns promptly after
// a cancel instead of trailing the queue.
func (s *Scheduler) DoBatchCtx(ctx context.Context, ins []*moldable.Instance, opt core.Options) []Result {
	ids := make([]uint64, len(ins))
	tasks := make([]*task, len(ins))
	for i, in := range ins {
		ids[i], tasks[i] = s.submit(ctx, in, opt)
	}
	out := make([]Result, len(ins))
	for i, id := range ids {
		out[i] = s.wait(ctx, id, tasks[i])
	}
	return out
}

// Stats snapshots the counters. The snapshot is mutually consistent
// under concurrent traffic: it retries (bounded) until no submission
// or completion lands inside the read window, and the individual loads
// are ordered against the increment order of SubmitCtx/finish —
// submitted is bumped before any completion and errors/result-hits
// before their completion, so reading errors and result-hits first,
// then completed, then submitted keeps every invariant
// (0 ≤ Pending, Errors ≤ Completed ≤ Submitted,
// ResultHits ≤ Completed) even when the retry budget runs out
// mid-burst. Pinned by TestStatsConsistentUnderLoad.
func (s *Scheduler) Stats() Stats {
	var st Stats
	for attempt := 0; ; attempt++ {
		subBefore, compBefore := s.submitted.Load(), s.completed.Load()
		st = Stats{
			Errors:         s.failures.Load(),
			ResultHits:     s.resultHits.Load(),
			CachedResults:  s.results.len(),
			OnlineOpened:   s.onlineOpened.Load(),
			OnlineArrivals: s.onlineArrivals.Load(),
		}
		st.Completed = s.completed.Load()
		st.Submitted = s.submitted.Load()
		if (st.Submitted == subBefore && st.Completed == compBefore) || attempt >= 3 {
			break
		}
	}
	s.onlines.Range(func(_, _ any) bool { st.OnlineSessions++; return true })
	st.Pending = st.Submitted - st.Completed
	return st
}

// PublishStats mirrors one Stats snapshot onto the obs registry's
// gauges (the *_total counters stream inline from SubmitCtx/finish;
// the gauges are point-in-time values, refreshed at scrape —
// docs/OBSERVABILITY.md). Serving layers call this from their
// GET /metrics handlers with whatever aggregate they route over.
func PublishStats(st Stats) {
	obs.ServicePending.Set(st.Pending)
	obs.ServiceCachedResults.Set(int64(st.CachedResults))
	obs.ServiceOnlineSessions.Set(int64(st.OnlineSessions))
}
