package netserve

import (
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/service"

	"encoding/json"
)

// Request is the union of all request shapes of the wire protocol
// (docs/PROTOCOL.md). "op" selects the operation; the other fields are
// op-specific.
type Request struct {
	Op        string          `json:"op"`
	Tag       string          `json:"tag,omitempty"`
	ID        uint64          `json:"id,omitempty"`
	Wait      bool            `json:"wait,omitempty"`
	Algo      string          `json:"algo,omitempty"`
	Eps       float64         `json:"eps,omitempty"`
	Validate  bool            `json:"validate,omitempty"`
	TimeoutMS float64         `json:"timeout_ms,omitempty"`
	Instance  json.RawMessage `json:"instance,omitempty"`
	// Schedule requests the full placement (start times alongside the
	// allotment) in the result response — what a remote client needs to
	// reconstruct a schedule.Schedule.
	Schedule bool `json:"schedule,omitempty"`

	// Tenant declares the connection's tenant id (the "hello" op); all
	// later costed requests on the connection draw from that tenant's
	// quota bucket.
	Tenant string `json:"tenant,omitempty"`

	// Online-session fields (open_online / arrive).
	M         int             `json:"m,omitempty"`
	Policy    string          `json:"policy,omitempty"`
	EpochMin  float64         `json:"epoch_min,omitempty"`
	EpochGrow float64         `json:"epoch_grow,omitempty"`
	T         float64         `json:"t,omitempty"`
	Job       json.RawMessage `json:"job,omitempty"`

	// TraceID correlates this request with the decision traces it
	// produces (docs/OBSERVABILITY.md). Empty means "server, assign
	// one"; either way the response echoes the id.
	TraceID string `json:"trace_id,omitempty"`

	// Trace asks the "stats" op to include the recent decision traces
	// alongside the counters.
	Trace bool `json:"trace,omitempty"`

	// The frame scanner (codec.go) decodes "instance" and "job" in the
	// same pass as the frame and leaves Instance and Job empty; the
	// handlers read these through instance and arrival.
	inst    *moldable.Instance
	instErr error
	job     moldable.Job
	jobErr  error
	// instKnown marks an inst taken from the server's table of known
	// instances, validated already; instSpan marks one decoded from the
	// frame's last member, whose bytes have fingerprint instFP
	// (known.go).
	instKnown bool
	instSpan  bool
	instFP    fingerprint
}

// Response is the union of all response shapes. Error responses carry
// a stable Code alongside the human-readable Error (see the "Error
// codes" section of docs/PROTOCOL.md).
type Response struct {
	Op     string `json:"op"`
	Tag    string `json:"tag,omitempty"`
	ID     uint64 `json:"id,omitempty"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
	Tenant string `json:"tenant,omitempty"` // hello ack

	// result fields
	Done       *bool         `json:"done,omitempty"`
	Cached     bool          `json:"cached,omitempty"`
	Algorithm  string        `json:"algorithm,omitempty"`
	Makespan   moldable.Time `json:"makespan,omitempty"`
	LowerBound moldable.Time `json:"lowerbound,omitempty"`
	Ratio      float64       `json:"ratio,omitempty"`
	Iterations int           `json:"iterations,omitempty"`
	ElapsedMS  float64       `json:"elapsed_ms,omitempty"`
	Allot      []int         `json:"allot,omitempty"`
	// Starts are the placement start times, parallel to Allot; present
	// only when the submit asked for the full schedule.
	Starts []moldable.Time `json:"starts,omitempty"`

	// stats payload
	Stats *service.Stats `json:"stats,omitempty"`

	// TraceID echoes the request's trace id (client-supplied or
	// server-assigned); every response carries one.
	TraceID string `json:"trace_id,omitempty"`

	// Traces carries the recent decision traces when a "stats" request
	// set Trace.
	Traces []WireTrace `json:"traces,omitempty"`

	// online-session payloads
	Events    []WireEvent `json:"events,omitempty"`
	MeanWait  float64     `json:"mean_wait,omitempty"`
	MeanFlow  float64     `json:"mean_flow,omitempty"`
	MaxFlow   float64     `json:"max_flow,omitempty"`
	Util      float64     `json:"utilization,omitempty"`
	Replans   int         `json:"replans,omitempty"`
	Fallbacks int         `json:"fallbacks,omitempty"`
	Finished  int         `json:"finished,omitempty"`

	// sched stands in for Allot and Starts (with withStarts) on a
	// result frame the server writes: the frame appender (codec.go)
	// reads the placements in place, and fill builds the two slices
	// only when the frame falls back to encoding/json.
	sched      *schedule.Schedule
	withStarts bool
}

// WireTrace is the JSON shape of one recorded scheduling decision
// (obs.TraceEvent): which request triggered it, which algorithm
// resolved, how many oracle probes it cost, and what came out.
type WireTrace struct {
	TraceID   string  `json:"trace_id,omitempty"`
	At        int64   `json:"at"` // unix nanoseconds
	Source    string  `json:"source"`
	Algo      string  `json:"algo,omitempty"`
	N         int     `json:"n,omitempty"`
	M         int     `json:"m,omitempty"`
	Eps       float64 `json:"eps,omitempty"`
	Probes    int     `json:"probes,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Makespan  float64 `json:"makespan,omitempty"`
	Omega     float64 `json:"omega,omitempty"`
	Code      string  `json:"code,omitempty"`
}

func wireTraces(evs []obs.TraceEvent) []WireTrace {
	out := make([]WireTrace, len(evs))
	for i, e := range evs {
		out[i] = WireTrace{
			TraceID: e.TID, At: e.At, Source: e.Source, Algo: e.Algo,
			N: e.N, M: e.M, Eps: e.Eps, Probes: e.Probes,
			ElapsedMS: float64(e.Elapsed) / 1e6,
			Makespan:  e.Makespan, Omega: e.Omega, Code: e.Code,
		}
	}
	return out
}

// WireEvent is the JSON shape of one online.Event. Job is -1 on events
// that concern no single job (replan).
type WireEvent struct {
	T        float64 `json:"t"`
	Kind     string  `json:"kind"`
	Job      int     `json:"job"`
	Procs    int     `json:"procs,omitempty"`
	Free     int     `json:"free"`
	Pending  int     `json:"pending,omitempty"`
	Algo     string  `json:"algo,omitempty"`
	Fallback bool    `json:"fallback,omitempty"`
}

func wireEvents(evs []online.Event) []WireEvent {
	out := make([]WireEvent, len(evs))
	for i, e := range evs {
		out[i] = WireEvent{
			T: float64(e.T), Kind: e.Kind.String(), Job: e.Job, Procs: e.Procs,
			Free: e.Free, Pending: e.Pending, Algo: e.Algo, Fallback: e.Fallback,
		}
	}
	return out
}

// eventFromWire rebuilds an online.Event from its wire shape (the
// client-side inverse of wireEvents; Err does not travel the wire).
func eventFromWire(w WireEvent) online.Event {
	return online.Event{
		T: moldable.Time(w.T), Kind: parseEventKind(w.Kind), Job: w.Job,
		Procs: w.Procs, Free: w.Free, Pending: w.Pending,
		Algo: w.Algo, Fallback: w.Fallback,
	}
}

func parseEventKind(s string) online.EventKind {
	switch s {
	case "arrive":
		return online.EvArrive
	case "replan":
		return online.EvReplan
	case "start":
		return online.EvStart
	case "finish":
		return online.EvFinish
	}
	return online.EvError
}
