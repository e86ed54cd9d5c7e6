package moldable

import (
	"context"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

const testM = 1 << 12

// checkJob verifies both monotonicity conditions exhaustively up to m.
func checkJob(t *testing.T, j Job, m int) {
	t.Helper()
	if err := CheckMonotone(j, m, 0); err != nil {
		t.Fatalf("%v: %v", j, err)
	}
}

func TestAmdahlMonotone(t *testing.T) {
	f := func(seq, par uint16) bool {
		j := Amdahl{Seq: 0.01 + float64(seq), Par: 0.01 + float64(par)}
		return CheckMonotone(j, 512, 0) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPowerMonotone(t *testing.T) {
	f := func(w uint16, a uint8) bool {
		alpha := float64(a%101) / 100 // [0,1]
		j := Power{W: 1 + float64(w), Alpha: alpha}
		return CheckMonotone(j, 512, 0) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommMonotone(t *testing.T) {
	f := func(w uint16, c uint8) bool {
		j := Comm{W: 1 + float64(w), C: float64(c) / 16}
		return CheckMonotone(j, 512, 0) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCommBruteForce checks the closed-form minimizer of Comm against a
// brute-force scan over q.
func TestCommBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for it := 0; it < 200; it++ {
		j := Comm{W: 1 + 100*rng.Float64(), C: rng.Float64()}
		p := 1 + rng.IntN(300)
		want := math.Inf(1)
		for q := 1; q <= p; q++ {
			if v := j.W/Time(q) + j.C*Time(q-1); v < want {
				want = v
			}
		}
		if got := j.Time(p); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("Comm{%v,%v}.Time(%d) = %v, brute force %v", j.W, j.C, p, got, want)
		}
	}
}

func TestSequentialAndPerfect(t *testing.T) {
	checkJob(t, Sequential{T: 5}, testM)
	checkJob(t, PerfectSpeedup{W: 5}, testM)
	if got := (PerfectSpeedup{W: 10}).Time(4); got != 2.5 {
		t.Errorf("perfect speedup: got %v, want 2.5", got)
	}
	if got := (Sequential{T: 3}).Time(100); got != 3 {
		t.Errorf("sequential: got %v, want 3", got)
	}
}

func TestMonotoneTable(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ts := make([]Time, len(raw))
		for i, r := range raw {
			ts[i] = 0.5 + float64(r)
		}
		tb := MonotoneTable(ts)
		return CheckMonotone(tb, len(ts), 0) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMonotoneTablePreservesMonotoneInput(t *testing.T) {
	// Already-monotone input must pass through unchanged.
	raw := []Time{10, 5.2, 4, 3.5, 3.5, 3.4}
	tb := MonotoneTable(raw)
	for i := range raw {
		if tb.T[i] != raw[i] {
			t.Fatalf("entry %d changed: %v -> %v", i, raw[i], tb.T[i])
		}
	}
}

func TestTableClampsBeyondLength(t *testing.T) {
	tb := Table{T: []Time{4, 2}}
	if tb.Time(10) != 2 {
		t.Errorf("Time(10) = %v, want 2 (last entry)", tb.Time(10))
	}
}

func TestCappedAndScaled(t *testing.T) {
	j := Capped{J: PerfectSpeedup{W: 12}, Max: 3}
	if j.Time(100) != 4 {
		t.Errorf("capped: got %v, want 4", j.Time(100))
	}
	checkJob(t, j, 64)
	s := Scaled{J: Amdahl{Seq: 1, Par: 9}, Factor: 2}
	if s.Time(1) != 20 {
		t.Errorf("scaled: got %v, want 20", s.Time(1))
	}
	checkJob(t, s, 64)
}

func TestCheckMonotoneRejectsBadJobs(t *testing.T) {
	cases := []struct {
		name string
		j    Job
	}{
		{"increasing time", Table{T: []Time{1, 2}}},
		{"decreasing work", Table{T: []Time{10, 1}}}, // w(2)=2 < w(1)=10
		{"zero time", Table{T: []Time{0, 0}}},
		{"nan", Table{T: []Time{math.NaN()}}},
		{"inf", Table{T: []Time{math.Inf(1)}}},
	}
	for _, c := range cases {
		if err := CheckMonotone(c.j, 2, 0); err == nil {
			t.Errorf("%s: CheckMonotone accepted a non-monotone job", c.name)
		}
	}
}

func TestCheckMonotoneSampledCatchesGlobalViolations(t *testing.T) {
	// A job whose violation spans the whole range must be caught even
	// with probing.
	bad := badJob{}
	if err := CheckMonotone(bad, 1<<20, 64); err == nil {
		t.Error("sampled CheckMonotone missed a globally increasing time function")
	}
}

type badJob struct{}

func (badJob) Time(p int) Time { return Time(p) } // increasing: not a valid job

func TestWork(t *testing.T) {
	j := PerfectSpeedup{W: 42}
	for _, p := range []int{1, 3, 17} {
		if w := Work(j, p); math.Abs(w-42) > 1e-12 {
			t.Errorf("Work(perfect, %d) = %v, want 42", p, w)
		}
	}
}

func TestInstanceBounds(t *testing.T) {
	in := &Instance{M: 4, Jobs: []Job{PerfectSpeedup{W: 8}, Sequential{T: 5}}}
	if got := in.MinTotalWork(); got != 13 {
		t.Errorf("MinTotalWork = %v, want 13", got)
	}
	if got := in.MaxMinTime(); got != 5 {
		t.Errorf("MaxMinTime = %v, want 5", got)
	}
	if got := in.LowerBound(); got != 5 {
		t.Errorf("LowerBound = %v, want 5 (max(13/4, 5))", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	if err := (&Instance{M: 0, Jobs: []Job{Sequential{T: 1}}}).ValidateCtx(context.Background(), 0); err == nil {
		t.Error("m=0 accepted")
	}
	if err := (&Instance{M: 2}).ValidateCtx(context.Background(), 0); err == nil {
		t.Error("no jobs accepted")
	}
	bad := &Instance{M: 2, Jobs: []Job{Table{T: []Time{1, 5}}}}
	if err := bad.ValidateCtx(context.Background(), 0); err == nil {
		t.Error("non-monotone job accepted")
	}
}

func TestCountingJob(t *testing.T) {
	in := &Instance{M: 8, Jobs: []Job{PerfectSpeedup{W: 4}, Amdahl{Seq: 1, Par: 3}}}
	wrapped, total := Instrument(in)
	for _, j := range wrapped.Jobs {
		_ = j.Time(3)
		_ = j.Time(5)
	}
	if total() != 4 {
		t.Errorf("oracle calls = %d, want 4", total())
	}
}

func TestPiecewiseMonotone(t *testing.T) {
	// Note a model fact the constructor enforces: a monotone STEP job
	// cannot drop its time by more than factor Procs[i]/(Procs[i]−1) at
	// a jump, because just below the jump the allotted-but-idle
	// processors already count as work (w(p) = p·t(p) uses the
	// allotment). Config times here respect that.
	pw, err := NewPiecewise([]int{1, 4, 16, 64}, []Time{100, 80, 76, 75})
	if err != nil {
		t.Fatal(err)
	}
	checkJob(t, pw, 128)
	if pw.Time(1) != 100 || pw.Time(3) != 100 || pw.Time(4) != 80 || pw.Time(100) != 75 {
		t.Errorf("step lookup wrong: %v %v %v %v", pw.Time(1), pw.Time(3), pw.Time(4), pw.Time(100))
	}
}

func TestPiecewiseClampsToMonotone(t *testing.T) {
	// config 2 too fast: 2 procs in time 1 would DECREASE work (1→2·1=2 < 1·10)?
	// w(1)=10, config at 2 with t=1: w(2)=2 ≥ w(1)? No: 2 < 10 → clamp.
	pw, err := NewPiecewise([]int{1, 2}, []Time{10, 1})
	if err != nil {
		t.Fatal(err)
	}
	checkJob(t, pw, 4)
	if pw.Times[1] <= 1 {
		t.Errorf("clamp did not raise config-2 time: %v", pw.Times[1])
	}
}

func TestPiecewiseRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	for it := 0; it < 300; it++ {
		k := 1 + rng.IntN(6)
		procs := []int{1}
		for len(procs) < k {
			procs = append(procs, procs[len(procs)-1]+1+rng.IntN(10))
		}
		times := make([]Time, k)
		for i := range times {
			times[i] = 0.1 + 100*rng.Float64()
		}
		pw, err := NewPiecewise(procs, times)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckMonotone(pw, procs[k-1]+5, 0); err != nil {
			t.Fatalf("it %d: %v (procs=%v times=%v)", it, err, procs, times)
		}
	}
}

func TestPiecewiseRejectsBadInput(t *testing.T) {
	if _, err := NewPiecewise([]int{2, 4}, []Time{5, 3}); err == nil {
		t.Error("missing 1-processor config accepted")
	}
	if _, err := NewPiecewise([]int{1, 1}, []Time{5, 3}); err == nil {
		t.Error("non-increasing procs accepted")
	}
	if _, err := NewPiecewise([]int{1}, []Time{5, 3}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewPiecewise([]int{1, 2}, []Time{5, -1}); err == nil {
		t.Error("negative time accepted")
	}
}
