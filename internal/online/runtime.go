package online

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/arena"
	"repro/internal/core"
	"repro/internal/listsched"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/sim"
)

// Config configures a Runtime.
type Config struct {
	// M is the machine size, ≥ 1. Required: an arrival trace carries no
	// machine, unlike an instance.
	M int
	// Policy selects the replanning strategy (default ReplanOnEpoch).
	Policy Policy
	// Algorithm is the per-epoch planner for the moldable policies
	// (default core.Auto; ignored by Greedy). A pinned algorithm outside
	// its regime for some epoch triggers the fallback chain rather than
	// an error; see the package comment.
	Algorithm core.Algorithm
	// Eps is the planner's accuracy parameter ε ∈ (0,1]; default 0.1.
	Eps float64
	// EpochMin and EpochGrow configure ReplanOnEpoch's doubling rule:
	// epoch k (0-based) may not close before EpochMin·EpochGrow^k after
	// it opened, bounding the replan frequency; the epoch then actually
	// closes when the machine has also drained the previous batch.
	// EpochMin 0 (the default) replans as soon as the machine drains;
	// EpochGrow defaults to 2 and must be ≥ 1.
	EpochMin  moldable.Time
	EpochGrow float64
}

func (c Config) withDefaults() Config {
	if c.Eps == 0 {
		c.Eps = 0.1
	}
	if c.EpochGrow == 0 {
		c.EpochGrow = 2
	}
	return c
}

// New validates cfg and returns an idle Runtime.
func New(cfg Config) (*Runtime, error) {
	cfg = cfg.withDefaults()
	if cfg.M < 1 {
		return nil, fmt.Errorf("online: m=%d must be ≥ 1", cfg.M)
	}
	if cfg.Eps < 0 || cfg.Eps > 1 {
		return nil, scherr.BadEps("online", cfg.Eps)
	}
	if cfg.EpochGrow < 1 {
		return nil, fmt.Errorf("online: epoch growth %g must be ≥ 1", cfg.EpochGrow)
	}
	if cfg.EpochMin < 0 {
		return nil, fmt.Errorf("online: minimum epoch length %g must be ≥ 0", cfg.EpochMin)
	}
	switch cfg.Policy {
	case ReplanOnEpoch, ReplanOnArrival, Greedy:
	default:
		return nil, fmt.Errorf("online: unknown policy %d", int(cfg.Policy))
	}
	rt := &Runtime{cfg: cfg}
	// Bind the completion callback once: a per-AdvanceTo method value
	// would allocate a closure on every event (DESIGN.md §6).
	rt.onFinishFn = rt.onFinish
	// Epoch decisions show in the trace ring as source "online".
	rt.sc.TraceSource = "online"
	rt.Reset()
	return rt, nil
}

// planned is one placement of the current plan, dispatched in
// (planned start, arrival index) order — the work-conserving discipline
// of sim's replay, against live machine state.
type planned struct {
	start moldable.Time
	dur   moldable.Time
	job   int // arrival index
	procs int
}

// Less orders the dispatch queue by planned start, ties by arrival
// index (deterministic event logs need a total order).
func (p planned) Less(o planned) bool {
	if p.start != o.start {
		return p.start < o.start
	}
	return p.job < o.job
}

// Runtime is the online scheduler: feed timestamped arrivals in order,
// then drain. The policies share its event loop and differ only in when
// replan runs and which planner it calls. A Runtime is
// single-goroutine state (like every Scratch in the repo); callers
// needing concurrency serialize access — internal/service wraps one
// runtime per session behind a mutex.
type Runtime struct {
	cfg  Config
	mach sim.Machine
	sc   core.Scratch // pooled planner scratch, reused across epochs
	ctx  context.Context

	// Per-arrival state, indexed by arrival order.
	jobs              []moldable.Job
	arriveT           []moldable.Time
	startT, finishT   []moldable.Time
	rigid             []int // Greedy: allotment fixed at arrival
	pending           []int // admitted, not in the current plan
	plan              arena.Heap[planned]
	lastArrival       moldable.Time
	started, finished int

	// Epoch state (ReplanOnEpoch).
	epochOpen   moldable.Time
	epochMinLen moldable.Time

	// Reused planning buffers: the pending sub-instance and its
	// local-index → arrival-index map.
	pi    moldable.Instance
	pjobs []moldable.Job
	pidx  []int
	rig   []int // Greedy: rigid allotments gathered for the pending set

	events     []Event
	onFinishFn func(sim.Running)

	// Metric accumulators.
	met                       Metrics
	waitSum, flowSum, maxFlow moldable.Time
	maxFinish                 moldable.Time

	drained bool
	err     error // sticky planner/stream failure
}

// Reset returns the runtime to its initial empty state, keeping every
// internal buffer — the warm path for replaying many traces without
// allocation.
func (rt *Runtime) Reset() {
	rt.mach.Reset(rt.cfg.M)
	rt.jobs = rt.jobs[:0]
	rt.arriveT = rt.arriveT[:0]
	rt.startT = rt.startT[:0]
	rt.finishT = rt.finishT[:0]
	rt.rigid = rt.rigid[:0]
	rt.pending = rt.pending[:0]
	rt.plan.Reset()
	rt.lastArrival = 0
	rt.started, rt.finished = 0, 0
	rt.epochOpen = 0
	rt.epochMinLen = rt.cfg.EpochMin
	rt.events = rt.events[:0]
	rt.pjobs = rt.pjobs[:0]
	rt.pidx = rt.pidx[:0]
	rt.rig = rt.rig[:0]
	rt.met = Metrics{}
	rt.waitSum, rt.flowSum, rt.maxFlow, rt.maxFinish = 0, 0, 0, 0
	rt.drained = false
	rt.err = nil
}

func (rt *Runtime) fail(err error) error {
	rt.err = err
	return err
}

// planFail classifies a planner/advance error: a cancellation is the
// caller's context ending mid-replan — the runtime state is intact
// (the pending set still holds every unplanned job), so it is NOT
// sticky and a retry under a live context resumes. Anything else is a
// genuine stream failure and poisons the runtime.
func (rt *Runtime) planFail(err error) error {
	if errors.Is(err, scherr.ErrCanceled) {
		return err
	}
	return rt.fail(err)
}

//sched:hotpath
func (rt *Runtime) emit(e Event) { rt.events = append(rt.events, e) }

// onFinish records a completion (capacity already released by the
// machine) and emits its event.
//
//sched:hotpath
func (rt *Runtime) onFinish(r sim.Running) {
	rt.finishT[r.Job] = r.Finish
	rt.finished++
	flow := r.Finish - rt.arriveT[r.Job]
	rt.flowSum += flow
	if flow > rt.maxFlow {
		rt.maxFlow = flow
	}
	if r.Finish > rt.maxFinish {
		rt.maxFinish = r.Finish
	}
	rt.emit(Event{T: r.Finish, Kind: EvFinish, Job: r.Job, Procs: r.Procs, Free: rt.mach.Free()})
}

// dispatch starts planned jobs work-conservingly: strictly in plan
// order, each as soon as its processors are free (never skipping ahead
// past a wider job — the discipline of sim's WorkConserving replay).
//
//sched:hotpath
func (rt *Runtime) dispatch() {
	for rt.plan.Len() > 0 {
		p := rt.plan.Min()
		if p.procs > rt.mach.Free() {
			return
		}
		rt.plan.Pop()
		now := rt.mach.Now()
		rt.mach.Start(p.job, p.procs, p.dur)
		rt.startT[p.job] = now
		rt.started++
		rt.waitSum += now - rt.arriveT[p.job]
		if obs.On() {
			// Arrival-to-dispatch lag, scaled to milli-sim-time so the
			// power-of-two buckets resolve sub-unit waits.
			obs.OnlineDispatchWait.ObserveFloat(float64((now - rt.arriveT[p.job]) * 1000))
		}
		rt.met.BusyArea += moldable.Time(p.procs) * p.dur
		rt.emit(Event{T: now, Kind: EvStart, Job: p.job, Procs: p.procs, Free: rt.mach.Free()})
	}
}

// epochClose reports when the current epoch may close: ReplanOnEpoch
// only, with a non-empty pending set, a drained machine, and an empty
// dispatch queue — no earlier than the epoch's minimum length after it
// opened (the doubling rule).
//
//sched:hotpath
func (rt *Runtime) epochClose() (moldable.Time, bool) {
	if rt.cfg.Policy != ReplanOnEpoch || len(rt.pending) == 0 ||
		rt.mach.Busy() > 0 || rt.plan.Len() > 0 {
		return 0, false
	}
	t := rt.epochOpen + rt.epochMinLen
	if now := rt.mach.Now(); t < now {
		t = now
	}
	return t, true
}

// advance processes every machine event with time ≤ t — completions and
// epoch closures, interleaved in time order — then moves the clock to t.
//
//sched:hotpath
func (rt *Runtime) advance(t moldable.Time) error {
	// The two inner event sources are mutually exclusive: epochClose
	// requires an idle machine, NextFinish a busy one. So each pass
	// fires whichever is due, never has to order them against each
	// other.
	for {
		if ft, ok := rt.mach.NextFinish(); ok && ft <= t {
			rt.mach.AdvanceTo(ft, rt.onFinishFn)
			rt.dispatch()
			continue
		}
		if ct, ok := rt.epochClose(); ok && ct <= t {
			rt.mach.AdvanceTo(ct, nil) // machine idle: clock move only
			if err := rt.replan(ct); err != nil {
				return err
			}
			rt.dispatch()
			continue
		}
		rt.mach.AdvanceTo(t, rt.onFinishFn)
		return nil
	}
}

// replan closes the current epoch at time t: the unstarted remainder of
// the previous plan is folded back into the pending set, the whole set
// is planned from scratch on the full machine, and the dispatch queue
// is rebuilt in planned start order. Moldable policies plan with
// core.ScheduleScratchCtx on the pooled scratch (allocation-free once
// warm); Greedy list-schedules the rigid allotments fixed at arrival.
func (rt *Runtime) replan(t moldable.Time) error {
	for i := 0; i < rt.plan.Len(); i++ {
		rt.pending = append(rt.pending, rt.plan.At(i).job)
	}
	rt.plan.Reset()
	n := len(rt.pending)
	if n == 0 {
		return nil
	}
	replanStart := time.Now()
	rt.pjobs = rt.pjobs[:0]
	rt.pidx = rt.pidx[:0]
	for _, j := range rt.pending {
		rt.pjobs = append(rt.pjobs, rt.jobs[j])
		rt.pidx = append(rt.pidx, j)
	}
	rt.pi.M = rt.cfg.M
	rt.pi.Jobs = rt.pjobs

	var placements []schedule.Placement
	algo := ""
	fallback := false
	if rt.cfg.Policy == Greedy {
		rt.rig = arena.Grow(rt.rig, n)
		for i, j := range rt.pidx {
			rt.rig[i] = rt.rigid[j]
		}
		s := listsched.Greedy(&rt.pi, rt.rig)
		placements = s.Placements
		algo = "greedy"
	} else {
		s, rep, err := core.ScheduleScratchCtx(rt.ctx, &rt.pi,
			core.Options{Algorithm: rt.cfg.Algorithm, Eps: rt.cfg.Eps}, &rt.sc)
		if err != nil && errors.Is(err, scherr.ErrRegime) {
			// The pinned algorithm's regime (m ≥ 16n/ε for the FPTAS)
			// does not hold for this epoch's backlog. Online, the
			// backlog is the policy's business, not the caller's:
			// substitute MRT — valid for every (n, m) at O(nm) per dual
			// call, affordable at exactly the small m that violates the
			// bound — then LT2, which cannot fail, and surface the
			// substitution on the replan event.
			fallback = true
			s, rep, err = core.ScheduleScratchCtx(rt.ctx, &rt.pi,
				core.Options{Algorithm: core.MRT, Eps: rt.cfg.Eps}, &rt.sc)
			if err != nil && !errors.Is(err, scherr.ErrCanceled) {
				s, rep, err = core.ScheduleScratchCtx(rt.ctx, &rt.pi,
					core.Options{Algorithm: core.LT2, Eps: rt.cfg.Eps}, &rt.sc)
			}
		}
		if err != nil {
			return err
		}
		placements = s.Placements
		algo = rep.Algorithm.String()
	}
	for _, p := range placements {
		rt.plan.Push(planned{start: p.Start, dur: p.Duration, job: rt.pidx[p.Job], procs: p.Procs})
	}
	rt.pending = rt.pending[:0]
	rt.met.Replans++
	if fallback {
		rt.met.Fallbacks++
	}
	if obs.On() {
		obs.OnlineReplans.Inc()
		obs.OnlineReplanLatency.Observe(int64(time.Since(replanStart)))
		obs.OnlineBacklog.Observe(int64(n))
		if fallback {
			obs.OnlineFallbacks.Inc()
		}
	}
	rt.emit(Event{T: t, Kind: EvReplan, Job: -1, Free: rt.mach.Free(),
		Pending: n, Algo: algo, Fallback: fallback})
	rt.epochOpen = t
	rt.epochMinLen *= moldable.Time(rt.cfg.EpochGrow)
	return nil
}

// Arrive admits one job. It processes every machine event (job
// completions, epoch closures) up to a.T first, so the returned events
// are in non-decreasing time order. The returned slice is owned by the
// runtime and valid only until the next call.
//
// A canceled context interrupts without failing the runtime. The job
// may already have been admitted when the cancellation landed (an
// EvArrive event in the returned slice says so); an admitted job stays
// pending and is planned at the next opportunity — do not re-send it.
func (rt *Runtime) Arrive(ctx context.Context, a Arrival) ([]Event, error) {
	if rt.err != nil {
		return nil, rt.err
	}
	if rt.drained {
		return nil, rt.fail(errors.New("online: arrival after drain"))
	}
	if a.Job == nil {
		return nil, rt.fail(errors.New("online: arrival with nil job"))
	}
	if a.T < 0 || a.T < rt.lastArrival {
		return nil, rt.fail(fmt.Errorf("online: arrival times must be non-negative and non-decreasing (got %g after %g)",
			a.T, rt.lastArrival))
	}
	if err := ctx.Err(); err != nil {
		return nil, scherr.Canceled(err) // not sticky: the stream may resume under a live ctx
	}
	rt.ctx = ctx
	rt.events = rt.events[:0]
	if err := rt.advance(a.T); err != nil {
		return rt.events, rt.planFail(err)
	}
	j := len(rt.jobs)
	rt.jobs = append(rt.jobs, a.Job)
	rt.arriveT = append(rt.arriveT, a.T)
	rt.startT = append(rt.startT, -1)
	rt.finishT = append(rt.finishT, -1)
	rt.lastArrival = a.T
	rt.pending = append(rt.pending, j)
	if rt.cfg.Policy == Greedy {
		rt.rigid = append(rt.rigid, rigidAllot(a.Job, rt.cfg.M))
	}
	if obs.On() {
		obs.OnlineArrivals.Inc()
	}
	rt.emit(Event{T: a.T, Kind: EvArrive, Job: j, Free: rt.mach.Free()})
	switch rt.cfg.Policy {
	case ReplanOnArrival, Greedy:
		if err := rt.replan(a.T); err != nil {
			return rt.events, rt.planFail(err)
		}
	case ReplanOnEpoch:
		// An idle machine must not sit on a closable epoch until the
		// next arrival happens to advance the clock.
		if ct, ok := rt.epochClose(); ok && ct <= a.T {
			if err := rt.replan(ct); err != nil {
				return rt.events, rt.planFail(err)
			}
		}
	}
	rt.dispatch()
	return rt.events, nil
}

// Drain runs the machine to completion: every admitted job is planned
// (closing open epochs) and executed. The returned slice is owned by
// the runtime and valid only until the next call. A canceled ctx
// interrupts the drain without failing the runtime; a later Drain with
// a live context resumes.
func (rt *Runtime) Drain(ctx context.Context) ([]Event, error) {
	if rt.err != nil {
		return nil, rt.err
	}
	if rt.drained {
		return nil, errors.New("online: already drained")
	}
	rt.ctx = ctx
	rt.events = rt.events[:0]
	for {
		if err := ctx.Err(); err != nil {
			return rt.events, scherr.Canceled(err) // resumable: not sticky
		}
		if ft, ok := rt.mach.NextFinish(); ok {
			rt.mach.AdvanceTo(ft, rt.onFinishFn)
			rt.dispatch()
			continue
		}
		if ct, ok := rt.epochClose(); ok {
			rt.mach.AdvanceTo(ct, nil)
			if err := rt.replan(ct); err != nil {
				return rt.events, rt.planFail(err)
			}
			rt.dispatch()
			continue
		}
		break
	}
	rt.drained = true
	return rt.events, nil
}

// Metrics snapshots the realized metrics so far (complete after a
// successful Drain).
func (rt *Runtime) Metrics() Metrics {
	m := rt.met
	m.M = rt.cfg.M
	m.Jobs = len(rt.jobs)
	m.Started = rt.started
	m.Finished = rt.finished
	m.Makespan = rt.maxFinish
	m.LastArrival = rt.lastArrival
	m.MaxFlow = rt.maxFlow
	if rt.started > 0 {
		m.MeanWait = rt.waitSum / moldable.Time(rt.started)
	}
	if rt.finished > 0 {
		m.MeanFlow = rt.flowSum / moldable.Time(rt.finished)
	}
	if m.Makespan > 0 {
		m.Utilization = float64(m.BusyArea / (moldable.Time(m.M) * m.Makespan))
	}
	return m
}

// rigidAllot fixes the Greedy baseline's allotment for a job at arrival:
// the widest p whose work stays within twice the sequential work
// (w(p) ≤ 2·w(1), the 1/2-efficiency rule — the standard rigid heuristic
// in the online moldable literature), found by binary search on the
// monotone work function.
func rigidAllot(j moldable.Job, m int) int {
	budget := 2 * j.Time(1)
	lo, hi := 1, m
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if moldable.Work(j, mid) <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}
