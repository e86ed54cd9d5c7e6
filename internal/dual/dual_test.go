package dual

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/scherr"
)

// mockDual accepts exactly when d ≥ opt and returns a schedule with
// makespan c·d (worst case allowed by the contract).
type mockDual struct {
	opt   moldable.Time
	c     float64
	tries []moldable.Time
}

func (m *mockDual) Guarantee() float64 { return m.c }
func (m *mockDual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	m.tries = append(m.tries, d)
	if d < m.opt {
		return nil, false
	}
	s := schedule.New(1)
	s.Add(0, 1, 0, m.c*d)
	return s, true
}

func TestSearchGuarantee(t *testing.T) {
	for _, c := range []float64{1.0, 1.5, 2.0} {
		for _, eps := range []float64{0.5, 0.1, 0.01} {
			for _, opt := range []moldable.Time{10, 15.7, 19.999} {
				// estimator: ω ≤ OPT ≤ 2ω; take the worst ω = OPT/2
				omega := opt / 2
				algo := &mockDual{opt: opt, c: c}
				s, rep, err := Search(context.Background(), algo, omega, 2*omega, eps)
				if err != nil {
					t.Fatalf("c=%v eps=%v opt=%v: %v", c, eps, opt, err)
				}
				if mk := s.Makespan(); mk > (c+eps)*float64(opt)*(1+1e-9) {
					t.Errorf("c=%v eps=%v opt=%v: makespan %v > (c+ε)OPT = %v",
						c, eps, opt, mk, (c+eps)*float64(opt))
				}
				if rep.Iterations > Iterations(c, eps)+3 {
					t.Errorf("c=%v eps=%v: %d iterations, want ≤ %d",
						c, eps, rep.Iterations, Iterations(c, eps)+3)
				}
			}
		}
	}
}

func TestSearchNeverProbesBelowOmega(t *testing.T) {
	algo := &mockDual{opt: 12, c: 1.5}
	omega := moldable.Time(8)
	if _, _, err := Search(context.Background(), algo, omega, 2*omega, 0.1); err != nil {
		t.Fatal(err)
	}
	for _, d := range algo.tries {
		if d < omega-1e-12 || d > 2*omega+1e-12 {
			t.Errorf("probe %v outside [ω, 2ω] = [%v, %v]", d, omega, 2*omega)
		}
	}
}

// TestSearchDetectsBrokenDual: rejecting d = 2ω ≥ OPT must error.
func TestSearchDetectsBrokenDual(t *testing.T) {
	algo := &mockDual{opt: 100, c: 1.5} // opt > 2ω: estimator contract broken
	if _, _, err := Search(context.Background(), algo, 10, 20, 0.1); err == nil {
		t.Error("expected ErrNoSchedule for a dual that rejects 2ω")
	}
}

type lyingDual struct{}

func (lyingDual) Guarantee() float64 { return 1.1 }
func (lyingDual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	s := schedule.New(1)
	s.Add(0, 1, 0, 10*d) // violates makespan ≤ c·d
	return s, true
}

func TestSearchDetectsGuaranteeViolation(t *testing.T) {
	if _, _, err := Search(context.Background(), lyingDual{}, 5, 10, 0.1); err == nil {
		t.Error("expected error for makespan > c·d")
	}
}

func TestSearchRejectsBadInputs(t *testing.T) {
	algo := &mockDual{opt: 1, c: 1}
	if _, _, err := Search(context.Background(), algo, 1, 2, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, _, err := Search(context.Background(), algo, 0, 0, 0.1); err == nil {
		t.Error("omega=0 accepted")
	}
}

// cancelingDual cancels its own search's context after a fixed number
// of probes, simulating a deadline landing mid-search.
type cancelingDual struct {
	mockDual
	cancel func()
	after  int
}

func (c *cancelingDual) Try(d moldable.Time) (*schedule.Schedule, bool) {
	if len(c.tries) >= c.after {
		c.cancel()
	}
	return c.mockDual.Try(d)
}

func TestSearchCtxCancelBetweenProbes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	algo := &cancelingDual{mockDual: mockDual{opt: 12, c: 1.5}, cancel: cancel, after: 2}
	_, rep, err := Search(ctx, algo, 8, 16, 0.001)
	if !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("Search after mid-search cancel = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("canceled search does not unwrap to context.Canceled")
	}
	// The third probe observes the canceled context before running, so
	// exactly the pre-cancel probes (plus the one that canceled) ran.
	if rep.Iterations > algo.after+1 {
		t.Errorf("search kept probing after cancel: %d iterations", rep.Iterations)
	}
	// An already-canceled context must not probe at all.
	dead, dcancel := context.WithCancel(context.Background())
	dcancel()
	fresh := &mockDual{opt: 12, c: 1.5}
	if _, rep, err := Search(dead, fresh, 8, 16, 0.1); !errors.Is(err, scherr.ErrCanceled) {
		t.Fatalf("Search on dead context = %v, want ErrCanceled", err)
	} else if rep.Iterations != 0 || len(fresh.tries) != 0 {
		t.Errorf("dead context still probed: %d iterations", rep.Iterations)
	}
}

func TestIterations(t *testing.T) {
	if it := Iterations(1.5, 0.1); it != int(math.Ceil(math.Log2(15)))+1 {
		t.Errorf("Iterations(1.5, 0.1) = %d", it)
	}
	if it := Iterations(1, 2); it != 1 {
		t.Errorf("Iterations(1, 2) = %d, want 1", it)
	}
}
