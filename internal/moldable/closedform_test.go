package moldable

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// opaque hides a job's concrete type, so CheckMonotone cannot apply the
// parameter proof and must probe.
type opaque struct{ j Job }

func (o opaque) Time(p int) Time { return o.j.Time(p) }

// checkAgainstScan runs CheckMonotone on j and on its opaque twin with
// the same probe budget. A job the parameter proof accepts must pass
// the probe; any other job must get exactly the probe's verdict.
func checkAgainstScan(t *testing.T, j Job, m, maxProbes int) (proven bool) {
	t.Helper()
	got, scan := CheckMonotone(j, m, maxProbes), CheckMonotone(opaque{j}, m, maxProbes)
	if got == nil && provenMonotone(j, 0) {
		if scan != nil {
			t.Fatalf("%v on m=%d: parameter proof accepted a job the scan rejects: %v", j, m, scan)
		}
		return true
	}
	if (got == nil) != (scan == nil) || (got != nil && got.Error() != scan.Error()) {
		t.Fatalf("%v on m=%d: CheckMonotone = %v, probe verdict %v", j, m, got, scan)
	}
	return false
}

// closedFormJob builds one job of the five closed-form families from
// raw parameters (family taken mod 5).
func closedFormJob(family int, a, b float64) Job {
	switch (family%5 + 5) % 5 {
	case 0:
		return Amdahl{Seq: a, Par: b}
	case 1:
		return Power{W: a, Alpha: b}
	case 2:
		return PerfectSpeedup{W: a}
	case 3:
		return Sequential{T: a}
	default:
		return Comm{W: a, C: b}
	}
}

// TestParameterProofImpliesScan is the soundness property of the
// parameter proof: over random closed-form jobs of every family, with
// parameters spanning 24 orders of magnitude, α ∈ {0, 1, random},
// nested Capped/Scaled wrappers and m ∈ {1, 2, 3, 64, 4096}, every job
// the proof accepts passes the exhaustive scan.
func TestParameterProofImpliesScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 0))
	param := func() Time { return math.Pow(10, -12+24*rng.Float64()) }
	ms := [...]int{1, 2, 3, 64, 4096}
	const jobs = 20000
	proven := 0
	for i := 0; i < jobs; i++ {
		family := i % 5
		a, b := param(), param()
		switch family {
		case 0: // Amdahl: either part may be zero
			switch rng.IntN(4) {
			case 0:
				a = 0
			case 1:
				b = 0
			}
		case 1: // Power: α at both ends of [0, 1] and inside
			b = [...]float64{0, 1, rng.Float64()}[rng.IntN(3)]
		case 4: // Comm: C = 0 (perfect speedup) and C ≫ W (sequential)
			if rng.IntN(5) == 0 {
				b = 0
			}
		}
		m := ms[(i/5)%len(ms)]
		j := closedFormJob(family, a, b)
		for depth := rng.IntN(4); depth > 0; depth-- {
			if rng.IntN(2) == 0 {
				j = Capped{J: j, Max: 1 + rng.IntN(m+4)}
			} else {
				j = Scaled{J: j, Factor: param()}
			}
		}
		if checkAgainstScan(t, j, m, 0) {
			proven++
		}
	}
	if proven != jobs {
		t.Errorf("parameter proof accepted %d of %d in-domain jobs, want all", proven, jobs)
	}
}

// TestParameterProofEdges: jobs outside the proven domain fall back to
// probing, so the malformed ones are still rejected with the probe's
// error, sampled and exhaustive alike.
func TestParameterProofEdges(t *testing.T) {
	nan := math.NaN()
	reject := []Job{
		Power{W: 10, Alpha: 1.5},
		Power{W: 10, Alpha: -0.5},
		Amdahl{Seq: 10, Par: -5},
		Amdahl{Seq: nan, Par: 1},
		Power{W: 1, Alpha: nan},
		PerfectSpeedup{W: nan},
		Sequential{T: nan},
		Comm{W: 1, C: nan},
		Scaled{J: Amdahl{Seq: 1, Par: 9}, Factor: 0},
		Scaled{J: Amdahl{Seq: 1, Par: 9}, Factor: nan},
		Capped{J: Amdahl{Seq: 1, Par: 9}, Max: 0},
		Scaled{J: Sequential{T: 1e300}, Factor: 1e300}, // t(1) = +Inf
		Scaled{J: Capped{J: Power{W: 4, Alpha: 2}, Max: 8}, Factor: 3},
	}
	for _, j := range reject {
		for _, probes := range []int{0, 64} {
			err := CheckMonotone(j, 1<<12, probes)
			if !errors.Is(err, ErrNotMonotone) {
				t.Errorf("%v (probes %d): CheckMonotone = %v, want ErrNotMonotone", j, probes, err)
			}
			checkAgainstScan(t, j, 1<<12, probes)
		}
	}
	// Outside the magnitude bounds or nested too deep: not proven, but
	// still monotone, so the probe accepts them.
	var deep Job = Sequential{T: 1}
	for range provenDepth + 1 {
		deep = Capped{J: deep, Max: 2}
	}
	for _, j := range []Job{PerfectSpeedup{W: 1e-40}, Amdahl{Seq: 1e40, Par: 1}, deep} {
		if provenMonotone(j, 0) {
			t.Errorf("%v: proven outside the domain", j)
		}
		if err := CheckMonotone(j, 64, 0); err != nil {
			t.Errorf("%v: %v", j, err)
		}
	}
}
