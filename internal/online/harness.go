package online

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/moldable"
)

// The competitive-ratio harness: replay a trace online, schedule the
// same job set with the clairvoyant offline planner, and compare.
//
// The clairvoyant reference sees every job up front AND ignores release
// times (all jobs available at time 0), so it needs no foresight — but
// it is still a (3/2+ε)/(1+ε) *approximation*, and its plan is executed
// verbatim where the online runtime dispatches work-conservingly. The
// realized/clairvoyant ratio can therefore dip below 1 on easy traces;
// the sound lower bound on both sides is Offline.LowerBound
// (max(ω, W/m, max_j t_j(m))). On heavy-traffic traces (last arrival ≤
// clairvoyant makespan) the batch-accumulation policy is expected
// within 1 + 2·(3/2+ε) ≈ 4× of the reference — the bound the
// competitive test pins.

// Outcome is one online-vs-clairvoyant comparison.
type Outcome struct {
	Online Metrics
	// Offline is the clairvoyant report (algorithm, makespan, bounds).
	Offline core.Report
	// MakespanRatio is Online.Makespan / Offline.Makespan. It may be
	// below 1: the reference is an approximation executed verbatim,
	// while the online runtime packs work-conservingly (see the file
	// comment); Offline.LowerBound is the floor neither side can beat.
	MakespanRatio float64
	// OfflineMeanFlow is the mean clairvoyant flow time, with each
	// job's flow clamped below by its scheduled duration (the offline
	// plan may finish a job before it would even have arrived; the
	// clamp keeps the reference physically meaningful). Optimistic by
	// construction — compare trends, not absolutes.
	OfflineMeanFlow moldable.Time
}

// Replay feeds the whole trace through a fresh runtime built from cfg
// and drains it, returning the accumulated event log (caller-owned) and
// the final metrics.
func Replay(ctx context.Context, cfg Config, trace []Arrival) ([]Event, Metrics, error) {
	rt, err := New(cfg)
	if err != nil {
		return nil, Metrics{}, err
	}
	return ReplayOn(ctx, rt, trace)
}

// ReplayOn replays the trace on an existing (fresh or Reset) runtime,
// accumulating every event. The returned slice is caller-owned.
func ReplayOn(ctx context.Context, rt *Runtime, trace []Arrival) ([]Event, Metrics, error) {
	var log []Event
	for i, a := range trace {
		evs, err := rt.Arrive(ctx, a)
		log = append(log, evs...)
		if err != nil {
			return log, rt.Metrics(), fmt.Errorf("online: arrival %d: %w", i, err)
		}
	}
	evs, err := rt.Drain(ctx)
	log = append(log, evs...)
	if err != nil {
		return log, rt.Metrics(), err
	}
	return log, rt.Metrics(), nil
}

// Compare replays the trace online under cfg and schedules the same
// jobs offline with the clairvoyant core planner (same ε; Auto
// algorithm selection), returning both sides and the realized
// makespan ratio.
func Compare(ctx context.Context, cfg Config, trace []Arrival) (Outcome, error) {
	_, met, err := Replay(ctx, cfg, trace)
	if err != nil {
		return Outcome{}, err
	}
	in := &moldable.Instance{M: cfg.M, Jobs: make([]moldable.Job, len(trace))}
	arriveT := make([]moldable.Time, len(trace))
	for i, a := range trace {
		in.Jobs[i] = a.Job
		arriveT[i] = a.T
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = 0.1
	}
	s, rep, err := core.ScheduleCtx(ctx, in, core.Options{Algorithm: core.Auto, Eps: eps})
	if err != nil {
		return Outcome{}, fmt.Errorf("online: clairvoyant reference: %w", err)
	}
	out := Outcome{Online: met, Offline: *rep}
	if rep.Makespan > 0 {
		out.MakespanRatio = float64(met.Makespan / rep.Makespan)
	}
	var flowSum moldable.Time
	for _, p := range s.Placements {
		flow := p.End() - arriveT[p.Job]
		if flow < p.Duration {
			flow = p.Duration
		}
		flowSum += flow
	}
	if len(s.Placements) > 0 {
		out.OfflineMeanFlow = flowSum / moldable.Time(len(s.Placements))
	}
	return out, nil
}
