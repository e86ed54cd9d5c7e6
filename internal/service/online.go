package service

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/online"
	"repro/internal/scherr"
)

// Online sessions: the service-side face of the online-arrivals runtime
// (internal/online; DESIGN.md §7). A session is a ticket owning one
// runtime: OpenOnline creates it, OnlineArrive feeds it one arrival at
// a time, OnlineTrace snapshots the accumulated event log, and
// OnlineDrain runs it to completion and releases the ticket. The
// moldschedd ops open_online/arrive/drain/trace are thin wrappers over
// these (docs/PROTOCOL.md §"Online sessions").
//
// Unlike batch submissions, a session is stateful and its operations
// are order-dependent, so they run on the caller's goroutine under the
// session mutex rather than on the worker queues; each runtime keeps its
// own core.Scratch, so repeated replans within a session are
// allocation-free just like the batch hot path.

// ErrUnknownSession reports an online-session id that was never opened
// or has already been drained.
var ErrUnknownSession = errors.New("service: unknown or closed online session")

type onlineSession struct {
	mu  sync.Mutex
	m   int             // machine size, for admission-time job validation
	rt  *online.Runtime //sched:guardedby mu
	log []online.Event  //sched:guardedby mu
	// lastUsed is the wall-clock nanosecond timestamp of the last
	// session op, for idle reaping (ReapOnlineIdle). Atomic, not
	// mu-guarded: the reaper must read it without taking every
	// session's mutex (a drain can hold mu for a long time).
	lastUsed atomic.Int64
}

// touch stamps the session as just-used.
func (sess *onlineSession) touch() { sess.lastUsed.Store(time.Now().UnixNano()) }

// OpenOnline creates an online session and returns its ticket.
// Sessions share the id space of batch tickets but are collected with
// OnlineDrain, not Wait/Poll.
func (s *Scheduler) OpenOnline(cfg online.Config) (uint64, error) {
	rt, err := online.New(cfg)
	if err != nil {
		return 0, err
	}
	id := s.nextID.Add(1)
	sess := &onlineSession{m: cfg.M, rt: rt}
	sess.touch()
	s.onlines.Store(id, sess)
	s.onlineOpened.Add(1)
	return id, nil
}

// OnlineMachine reports the machine size of an open session — what an
// admission layer validates arriving jobs against (moldschedd probes
// monotonicity over [1, m] before OnlineArrive, mirroring submit).
func (s *Scheduler) OnlineMachine(id uint64) (int, error) {
	sess, err := s.online(id)
	if err != nil {
		return 0, err
	}
	return sess.m, nil
}

// OnlineArrive admits one arrival into the session and returns the
// events it produced (a stable slice into the session's log — the
// session owns the backing array; callers must not mutate it). A
// runtime failure (out-of-order timestamps, planner error) poisons the
// session: the error is returned now and on every later call, until
// OnlineDrain releases the ticket.
func (s *Scheduler) OnlineArrive(ctx context.Context, id uint64, a online.Arrival) ([]online.Event, error) {
	sess, err := s.online(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	evs, err := sess.rt.Arrive(ctx, a)
	if err == nil {
		s.onlineArrivals.Add(1) // count admissions, not requests
	}
	tail := len(sess.log)
	sess.log = append(sess.log, evs...)
	return sess.log[tail:], err
}

// OnlineTrace snapshots the session's accumulated event log (every
// event since open, in order). The returned slice is shared with the
// session; treat it as read-only.
func (s *Scheduler) OnlineTrace(id uint64) ([]online.Event, error) {
	sess, err := s.online(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.log[:len(sess.log):len(sess.log)], nil
}

// OnlineDrain runs the session's runtime to completion, returning the
// drain events and the final metrics, and releases the ticket — even
// when the drain fails, so a poisoned session cannot leak. Exception:
// a drain interrupted by ctx (error matching scherr.ErrCanceled) keeps
// the ticket, since the runtime can resume under a live context.
func (s *Scheduler) OnlineDrain(ctx context.Context, id uint64) ([]online.Event, online.Metrics, error) {
	sess, err := s.online(id)
	if err != nil {
		return nil, online.Metrics{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	evs, err := sess.rt.Drain(ctx)
	tail := len(sess.log)
	sess.log = append(sess.log, evs...)
	met := sess.rt.Metrics()
	if err != nil && errors.Is(err, scherr.ErrCanceled) {
		return sess.log[tail:], met, err // resumable; ticket kept
	}
	s.onlines.Delete(id)
	return sess.log[tail:], met, err
}

func (s *Scheduler) online(id uint64) (*onlineSession, error) {
	v, ok := s.onlines.Load(id)
	if !ok {
		return nil, ErrUnknownSession
	}
	sess := v.(*onlineSession)
	sess.touch()
	return sess, nil
}

// ReleaseOnline drops an open session without draining it: admitted
// but unfinished work is abandoned and the ticket is released. It is
// the cleanup path for sessions whose owner disappeared — a network
// connection that vanished mid-session cannot drain, and before this
// existed its sessions leaked (held their runtime and event log until
// process exit). Idempotent; reports whether a session was released.
func (s *Scheduler) ReleaseOnline(id uint64) bool {
	_, ok := s.onlines.LoadAndDelete(id)
	return ok
}

// ReapOnlineIdle releases every open session whose last operation
// (open, arrive, trace, drain attempt) is older than maxIdle,
// returning how many were reaped. Serving layers run this
// periodically so sessions abandoned without a disconnect signal —
// the client process died, the connection is wedged half-open — are
// still bounded in lifetime. maxIdle ≤ 0 reaps nothing.
func (s *Scheduler) ReapOnlineIdle(maxIdle time.Duration) int {
	if maxIdle <= 0 {
		return 0
	}
	cutoff := time.Now().Add(-maxIdle).UnixNano()
	reaped := 0
	s.onlines.Range(func(k, v any) bool {
		if v.(*onlineSession).lastUsed.Load() < cutoff {
			if _, ok := s.onlines.LoadAndDelete(k); ok {
				reaped++
			}
		}
		return true
	})
	return reaped
}
