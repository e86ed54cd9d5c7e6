// Package online is the event-driven online-arrivals runtime: the first
// non-batch workload class in the repo (DESIGN.md §7). Where everything
// under internal/core is one-shot — the whole instance known up front,
// planned once by the offline (3/2+ε)/FPTAS machinery of Jansen & Land —
// online accepts a stream of timestamped job arrivals and must commit
// processors before it has seen the future. The runtime accumulates
// arrivals into epochs, replans each epoch's pending set with the
// existing zero-alloc core.ScheduleScratchCtx oracle, and dispatches the
// plan work-conservingly onto an m-processor machine state (the
// sim.Machine event core): a planned job starts as soon as its
// processors are free, in planned start order.
//
// Three policies, all run by the one Runtime:
//
//   - ReplanOnEpoch (default): batch accumulation. Arrivals wait while
//     the current batch executes; when the machine drains (and a
//     configurable geometrically growing minimum epoch length has
//     passed), the whole pending set is replanned at once. This is the
//     classic constant-competitive batch strategy for online moldable
//     scheduling (Benoit et al. 2023; Wu & Loiseau 2016): with batch
//     makespans bounded by (3/2+ε)·OPT of the batch, the realized
//     makespan is at most r_max + 2·(3/2+ε)·OPT, i.e. ≤ 4×OPT on
//     heavy-traffic traces where r_max ≤ OPT (see harness.go and the
//     competitive test).
//   - ReplanOnArrival: every arrival replans the entire unstarted set
//     immediately — lowest wait times, most oracle work.
//   - Greedy: the rigid baseline. Each job's allotment is fixed once at
//     arrival (the largest p whose work stays within twice the
//     sequential work — the standard 1/2-efficiency rule), and the
//     unstarted set is list-scheduled with listsched.Greedy. No
//     moldable replanning; the yardstick the moldable policies are
//     measured against.
//
// Regime fallback: a policy configured with a fixed algorithm (say the
// Theorem-2 FPTAS) can find an epoch's pending set outside the proven
// regime — the FPTAS needs m ≥ 16n/ε and n grows with the backlog.
// Rather than failing the stream, the runtime falls back (MRT, then
// LT2) and surfaces the substitution on the replan event.
//
// The harness (Compare) replays a trace online and schedules the same
// job set offline with the clairvoyant core.ScheduleCtx, reporting
// realized-vs-clairvoyant makespan and flow-time metrics.
package online

import (
	"fmt"
	"strings"

	"repro/internal/moldable"
)

// Policy selects the replanning strategy.
type Policy int

// Policies.
const (
	// ReplanOnEpoch accumulates arrivals into batches: the pending set
	// is replanned when the machine drains and the epoch's minimum
	// length (EpochMin·EpochGrow^k, k the epoch index) has passed.
	ReplanOnEpoch Policy = iota
	// ReplanOnArrival replans the whole unstarted set on every arrival.
	ReplanOnArrival
	// Greedy is the rigid baseline: allotments fixed at arrival by the
	// 1/2-efficiency rule, dispatch via listsched.Greedy.
	Greedy
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case ReplanOnEpoch:
		return "epoch"
	case ReplanOnArrival:
		return "arrival"
	case Greedy:
		return "greedy"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Policies lists every policy, in declaration order.
func Policies() []Policy { return []Policy{ReplanOnEpoch, ReplanOnArrival, Greedy} }

// ParsePolicy converts a name to a Policy, case-insensitively; an
// unknown name's error enumerates the valid ones.
func ParsePolicy(s string) (Policy, error) {
	names := make([]string, 0, 3)
	for _, p := range Policies() {
		if strings.EqualFold(p.String(), s) {
			return p, nil
		}
		names = append(names, p.String())
	}
	return ReplanOnEpoch, fmt.Errorf("online: unknown policy %q (valid: %s)",
		s, strings.Join(names, ", "))
}

// Arrival is one timestamped job arrival. Streams must be ordered by
// non-decreasing T.
type Arrival struct {
	T   moldable.Time
	Job moldable.Job
}

// EventKind tags runtime events.
type EventKind int

// Event kinds.
const (
	// EvArrive: a job entered the pending set. Job is its index.
	EvArrive EventKind = iota
	// EvReplan: an epoch closed and the pending set was (re)planned.
	// Pending is the planned set's size, Algo the planner actually used,
	// Fallback whether a regime fallback substituted it.
	EvReplan
	// EvStart: a planned job acquired Procs processors.
	EvStart
	// EvFinish: a running job released its processors.
	EvFinish
	// EvError: the stream ended abnormally (canceled context,
	// non-monotone arrival times, planner failure); Err carries the
	// cause. Always the final event of its stream.
	EvError
)

// String names the event kind (also the wire encoding in moldschedd).
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvReplan:
		return "replan"
	case EvStart:
		return "start"
	case EvFinish:
		return "finish"
	case EvError:
		return "error"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one transition of the online runtime. Jobs are identified by
// arrival index (0-based, in stream order).
type Event struct {
	T    moldable.Time
	Kind EventKind
	Job  int // arrival index; -1 for EvReplan/EvError
	// Procs is the allotment being acquired/released (EvStart/EvFinish).
	Procs int
	// Free is the free processor count immediately after the event.
	Free int
	// Pending is the size of the set just replanned (EvReplan).
	Pending int
	// Algo names the planner used for EvReplan ("fptas", "linear", …;
	// "greedy" for the rigid baseline).
	Algo string
	// Fallback marks an EvReplan whose configured algorithm was outside
	// its proven regime for this pending set and was substituted.
	Fallback bool
	// Err is the terminal cause on EvError, nil otherwise. (Not part of
	// the wire format; moldschedd sends its Error()/code.)
	Err error
}

// Metrics summarizes a (partially or fully) replayed stream. Wait is
// start−arrival, flow is finish−arrival; means are over finished jobs.
type Metrics struct {
	M        int
	Jobs     int // arrivals admitted
	Started  int
	Finished int
	// Makespan is the last finish time (absolute, on the arrival clock).
	Makespan    moldable.Time
	LastArrival moldable.Time
	MeanWait    moldable.Time
	MeanFlow    moldable.Time
	MaxFlow     moldable.Time
	// BusyArea is Σ procs·duration over started jobs; Utilization is
	// BusyArea/(M·Makespan).
	BusyArea    moldable.Time
	Utilization float64
	Replans     int
	Fallbacks   int
}
