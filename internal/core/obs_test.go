package core

import (
	"context"
	"testing"

	"repro/internal/moldable"
	"repro/internal/obs"
)

// TestObsAlgoLabelsMatch pins the index contract between
// core.Algorithm and obs.SchedAlgo: record sites index the counter vec
// with int(rep.Algorithm), so obs.AlgoLabels must mirror the enum's
// declaration order exactly (obs cannot import core to derive it).
func TestObsAlgoLabelsMatch(t *testing.T) {
	algos := Algorithms()
	if obs.SchedAlgo.Len() != len(algos) {
		t.Fatalf("obs.SchedAlgo has %d children, core has %d algorithms",
			obs.SchedAlgo.Len(), len(algos))
	}
	for _, a := range algos {
		if got := obs.SchedAlgo.LabelValue(int(a)); got != a.String() {
			t.Errorf("obs.AlgoLabels[%d] = %q, want %q", int(a), got, a.String())
		}
	}
}

// lastTrace returns the most recent decision in the process's trace
// ring tagged tid.
func lastTrace(t *testing.T, tid string) obs.TraceEvent {
	t.Helper()
	evs := obs.SnapshotTraces(0)
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].TID == tid {
			return evs[i]
		}
	}
	t.Fatalf("no decision tagged %s in the trace ring", tid)
	return obs.TraceEvent{}
}

// TestObsDecisionTrace drives a scratch-backed schedule under a tagged
// context and checks that the decision landed in the process's ring
// with the trace_id, the source, the resolved algorithm, and the probe
// count.
func TestObsDecisionTrace(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 16, M: 512, Seed: 3})
	sc := NewScratch()
	ctx := obs.WithTraceID(context.Background(), "t-obs-test")
	_, rep, err := ScheduleScratchCtx(ctx, in, Options{Algorithm: Linear, Eps: 0.25}, sc)
	if err != nil {
		t.Fatal(err)
	}
	e := lastTrace(t, "t-obs-test")
	if e.Algo != "linear" || e.Source != "sched" {
		t.Errorf("algo/source = %q/%q, want linear/sched", e.Algo, e.Source)
	}
	if e.N != in.N() || e.M != in.M {
		t.Errorf("n/m = %d/%d, want %d/%d", e.N, e.M, in.N(), in.M)
	}
	if e.Probes != rep.Iterations || e.Code != "" {
		t.Errorf("probes/code = %d/%q, want %d/\"\"", e.Probes, e.Code, rep.Iterations)
	}
	if e.Makespan <= 0 || float64(rep.Makespan) != e.Makespan {
		t.Errorf("makespan = %v, want %v", e.Makespan, rep.Makespan)
	}

	// An erroring decision records its stable code, and the scratch's
	// TraceSource tags it.
	sc.TraceSource = "online"
	ctx = obs.WithTraceID(context.Background(), "t-obs-test-err")
	_, _, err = ScheduleScratchCtx(ctx, in, Options{Algorithm: FPTAS, Eps: 0.001}, sc)
	if err == nil {
		t.Fatal("expected regime error for FPTAS at tiny eps")
	}
	if e := lastTrace(t, "t-obs-test-err"); e.Code != "regime" || e.Source != "online" {
		t.Errorf("error decision code/source = %q/%q, want regime/online", e.Code, e.Source)
	}
}
