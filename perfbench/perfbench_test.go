package main

import (
	"context"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/lt"
	"repro/internal/service"
)

// TestStreamDeterministic pins that the request stream is a function of
// the seed: the same seed encodes to byte-identical requests, another
// seed to different ones.
func TestStreamDeterministic(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			count := 4
			a, err := buildSet(s, 7, count, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := buildSet(s, 7, count, 2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := buildSet(s, 8, count, 2)
			if err != nil {
				t.Fatal(err)
			}
			if a.digest != b.digest || a.bytes != b.bytes {
				t.Errorf("seed 7 twice: streams %s (%d B) and %s (%d B) differ", a.digest, a.bytes, b.digest, b.bytes)
			}
			if a.digest == c.digest {
				t.Errorf("seeds 7 and 8 give the same stream %s", a.digest)
			}
		})
	}
}

// TestQualityDeterministic pins that a run's quality metrics are exact
// for a seed: two runs of the same small request set through the
// server agree on ratio_mean and flow_mean, and every answer passes
// the answer check.
func TestQualityDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the server")
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			count := 16
			if s.online {
				count = 2
			}
			var got [2]output
			for i := range got {
				out, err := plain(context.Background(), io.Discard, s, 3, count, 2)
				if err != nil {
					t.Fatal(err)
				}
				if out.Failed != 0 {
					t.Fatalf("%d of %d requests failed the answer check", out.Failed, out.Attempted)
				}
				got[i] = out
			}
			for _, k := range []string{"ratio_mean", "flow_mean"} {
				if a, b := got[0].Metrics[k].Value, got[1].Metrics[k].Value; a != b || a <= 0 {
					t.Errorf("%s: %v then %v, want equal and positive", k, a, b)
				}
			}
		})
	}
}

// TestAnswerCheckRejects pins that the answer check fails a wrong
// answer: a schedule that overloads the machine, a makespan that
// disagrees with the report, and one beyond guarantee·2ω.
func TestAnswerCheckRejects(t *testing.T) {
	in := newInstance(spec{m: 64}, 1).in
	sched, rep, err := core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.Auto})
	if err != nil {
		t.Fatal(err)
	}
	good := service.Result{Schedule: sched, Report: rep}
	a, err := checkAnswer(in, good)
	if err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if err := checkGuarantee(a, lt.Estimate(in).Omega); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}

	overload := sched.Clone()
	for i := range overload.Placements {
		p := &overload.Placements[i]
		p.Procs, p.Start, p.Duration = in.M, 0, in.Jobs[p.Job].Time(in.M)
	}
	if _, err := checkAnswer(in, service.Result{Schedule: overload, Report: rep}); err == nil {
		t.Error("a schedule running every job on all processors at once passed")
	}
	misreported := *rep
	misreported.Makespan /= 2
	if _, err := checkAnswer(in, service.Result{Schedule: sched, Report: &misreported}); err == nil {
		t.Error("a makespan disagreeing with the schedule passed")
	}
	if err := checkGuarantee(a, a.makespan/(2*guarantee(a.algo))/1.01); err == nil {
		t.Error("a makespan beyond guarantee·2ω passed")
	}
}
