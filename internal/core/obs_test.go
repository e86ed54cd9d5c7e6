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

// TestObsDecisionTrace drives a scratch-backed schedule under a tagged
// context and checks that the decision landed in the scratch's ring
// with the trace_id, the resolved algorithm, and the probe count.
func TestObsDecisionTrace(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 16, M: 512, Seed: 3})
	sc := NewScratch()
	ctx := obs.WithTraceID(context.Background(), "t-obs-test")
	_, rep, err := ScheduleScratchCtx(ctx, in, Options{Algorithm: Linear, Eps: 0.25}, sc)
	if err != nil {
		t.Fatal(err)
	}
	evs := sc.ObsRing().Snapshot(nil)
	if len(evs) == 0 {
		t.Fatal("no decision recorded in the scratch ring")
	}
	e := evs[len(evs)-1]
	if e.TID != "t-obs-test" {
		t.Errorf("TID = %q, want t-obs-test", e.TID)
	}
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

	// An erroring decision records its stable code.
	before := sc.ObsRing().Recorded()
	_, _, err = ScheduleScratchCtx(ctx, in, Options{Algorithm: FPTAS, Eps: 0.001}, sc)
	if err == nil {
		t.Fatal("expected regime error for FPTAS at tiny eps")
	}
	evs = sc.ObsRing().Snapshot(nil)
	if sc.ObsRing().Recorded() == before || evs[len(evs)-1].Code == "" {
		t.Errorf("error decision not recorded with a code: %+v", evs[len(evs)-1])
	}
}

// TestNilScratchSharesOneRing: nil-scratch calls record into one shared
// ring, so 600 of them (more than the registry's 512 rings) leave a
// worker scratch's ring, and the trace_id in it, readable.
func TestNilScratchSharesOneRing(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	in := moldable.Random(moldable.GenConfig{N: 4, M: 8, Seed: 2})
	ctx := context.Background()
	worker := NewScratch()
	if _, _, err := ScheduleScratchCtx(obs.WithTraceID(ctx, "t-worker-ring"), in, Options{Algorithm: Linear, Eps: 0.5}, worker); err != nil {
		t.Fatal(err)
	}
	for range 600 {
		if _, _, err := ScheduleCtx(ctx, in, Options{Algorithm: Linear, Eps: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range obs.SnapshotTraces(0) {
		if e.TID == "t-worker-ring" {
			return
		}
	}
	t.Error("the worker ring's trace_id is gone from the registry after 600 nil-scratch calls")
}
