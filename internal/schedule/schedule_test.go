package schedule

import (
	"bytes"
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"repro/internal/moldable"
)

func twoJobInstance() *moldable.Instance {
	return &moldable.Instance{M: 4, Jobs: []moldable.Job{
		moldable.PerfectSpeedup{W: 8}, // t(2) = 4
		moldable.Sequential{T: 3},
	}}
}

func TestMakespanAndUsage(t *testing.T) {
	s := New(4)
	s.Add(0, 2, 0, 4)
	s.Add(1, 1, 1, 3)
	if mk := s.Makespan(); mk != 4 {
		t.Errorf("makespan %v, want 4", mk)
	}
	if u := s.MaxUsage(); u != 3 {
		t.Errorf("max usage %d, want 3", u)
	}
	if w := s.TotalWork(); w != 11 {
		t.Errorf("total work %v, want 11", w)
	}
}

func TestMaxUsageBackToBack(t *testing.T) {
	// back-to-back placements on the same processors must not double count
	s := New(2)
	s.Add(0, 2, 0, 1)
	s.Add(1, 2, 1, 1)
	if u := s.MaxUsage(); u != 2 {
		t.Errorf("max usage %d, want 2 (no overlap at the boundary)", u)
	}
}

func TestValidateAccepts(t *testing.T) {
	in := twoJobInstance()
	s := New(4)
	s.Add(0, 2, 0, 4)
	s.Add(1, 1, 0, 3)
	if err := Validate(in, s, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	in := twoJobInstance()
	mk := func(build func(*Schedule)) *Schedule {
		s := New(4)
		build(s)
		return s
	}
	cases := []struct {
		name string
		s    *Schedule
	}{
		{"missing job", mk(func(s *Schedule) { s.Add(0, 2, 0, 4) })},
		{"duplicate job", mk(func(s *Schedule) {
			s.Add(0, 2, 0, 4)
			s.Add(0, 2, 4, 4)
			s.Add(1, 1, 0, 3)
		})},
		{"wrong duration", mk(func(s *Schedule) {
			s.Add(0, 2, 0, 5)
			s.Add(1, 1, 0, 3)
		})},
		{"too many procs", mk(func(s *Schedule) {
			s.Add(0, 5, 0, 8.0/5)
			s.Add(1, 1, 0, 3)
		})},
		{"negative start", mk(func(s *Schedule) {
			s.Add(0, 2, -1, 4)
			s.Add(1, 1, 0, 3)
		})},
		{"oversubscribed", mk(func(s *Schedule) {
			s.Add(0, 4, 0, 2)
			s.Add(1, 1, 1, 3)
		})},
	}
	for _, c := range cases {
		if err := Validate(in, c.s, Options{}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestValidateConcrete(t *testing.T) {
	in := twoJobInstance()
	s := New(4)
	s.AddAt(0, 2, 0, 4, 0)
	s.AddAt(1, 1, 0, 3, 1) // overlaps processor 1 with job 0
	if err := Validate(in, s, Options{RequireConcrete: true}); err == nil {
		t.Error("overlapping concrete assignment accepted")
	}
	s2 := New(4)
	s2.AddAt(0, 2, 0, 4, 0)
	s2.AddAt(1, 1, 0, 3, 2)
	if err := Validate(in, s2, Options{RequireConcrete: true}); err != nil {
		t.Errorf("valid concrete schedule rejected: %v", err)
	}
}

func TestAssignContiguous(t *testing.T) {
	in := twoJobInstance()
	s := New(4)
	s.Add(0, 2, 0, 4)
	s.Add(1, 1, 0, 3)
	if err := AssignContiguous(s); err != nil {
		t.Fatal(err)
	}
	if err := Validate(in, s, Options{RequireConcrete: true}); err != nil {
		t.Fatal(err)
	}
}

func TestAllotment(t *testing.T) {
	s := New(4)
	s.Add(1, 3, 0, 1)
	a := s.Allotment(2)
	if a[0] != 0 || a[1] != 3 {
		t.Errorf("allotment %v, want [0 3]", a)
	}
}

func TestGanttRendersEveryJob(t *testing.T) {
	s := New(3)
	s.AddAt(0, 2, 0, 4, 0)
	s.AddAt(1, 1, 0, 3, 2)
	out := Gantt(s, 40)
	if !strings.Contains(out, "0") || !strings.Contains(out, "1") {
		t.Errorf("labels missing from gantt:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != 4 { // header + 3 proc rows
		t.Errorf("expected 4 lines, got %d:\n%s", got, out)
	}
}

func TestUsageProfile(t *testing.T) {
	s := New(2)
	s.Add(0, 2, 0, 1)
	out := UsageProfile(s, 20)
	if !strings.Contains(out, "makespan") {
		t.Errorf("unexpected profile output: %s", out)
	}
}

func TestEmptyScheduleRendering(t *testing.T) {
	if out := Gantt(New(2), 20); !strings.Contains(out, "empty") {
		t.Errorf("empty gantt: %q", out)
	}
}

func TestClone(t *testing.T) {
	s := New(2)
	s.Add(0, 1, 0, 1)
	c := s.Clone()
	c.Placements[0].Procs = 2
	if s.Placements[0].Procs != 1 {
		t.Error("clone aliases original")
	}
}

func TestSVG(t *testing.T) {
	s := New(4)
	s.AddAt(0, 2, 0, 4, 0)
	s.AddAt(1, 1, 0, 3, 2)
	var buf bytes.Buffer
	if err := SVG(&buf, s, 300, 200); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "job 0", "job 1", "m=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("svg missing %q", want)
		}
	}
	if got := strings.Count(out, "<rect"); got != 4 { // bg + frame + 2 jobs
		t.Errorf("expected 4 rects, got %d", got)
	}
}

func TestSVGEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := SVG(&buf, New(2), 100, 100); err == nil {
		t.Error("empty schedule rendered")
	}
}

// maxUsageSortSlice is MaxUsage as it was written with sort.Slice, the
// reference for the slices.SortFunc version.
func maxUsageSortSlice(s *Schedule) int {
	type event struct {
		t     moldable.Time
		delta int
	}
	events := make([]event, 0, 2*len(s.Placements))
	for _, p := range s.Placements {
		events = append(events, event{p.Start, p.Procs}, event{p.End(), -p.Procs})
	}
	sort.Slice(events, func(i, k int) bool {
		if events[i].t != events[k].t {
			return events[i].t < events[k].t
		}
		return events[i].delta < events[k].delta
	})
	cur, best := 0, 0
	for _, e := range events {
		cur += e.delta
		if cur > best {
			best = cur
		}
	}
	return best
}

// TestMaxUsageMatchesSortSlice compares MaxUsage with the sort.Slice
// reference on random schedules. Half the trials put times on a coarse
// grid, so intervals touch (one ends where another starts) and
// zero-length placements are common; the other half draw non-integer
// times, where an end meets a start only through the float sum.
func TestMaxUsageMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 0))
	for trial := 0; trial < 4000; trial++ {
		s := New(64)
		grid := trial%2 == 0
		for j := rng.IntN(40); j >= 0; j-- {
			start := moldable.Time(rng.IntN(8))
			dur := moldable.Time(rng.IntN(4)) // 0 is a zero-length placement
			if !grid {
				start = 8 * rng.Float64()
				dur = 4 * rng.Float64()
				if rng.IntN(4) == 0 && len(s.Placements) > 0 {
					start = s.Placements[rng.IntN(len(s.Placements))].End()
				}
			}
			s.Add(j, 1+rng.IntN(8), start, dur)
		}
		if got, want := s.MaxUsage(), maxUsageSortSlice(s); got != want {
			t.Fatalf("trial %d: MaxUsage = %d, sort.Slice version = %d\n%+v", trial, got, want, s.Placements)
		}
	}
}

// TestValidateRejectsNonFinite: a NaN or infinite start or duration is
// an error, though a NaN start fails the negative-start check and the
// duration check passes it.
func TestValidateRejectsNonFinite(t *testing.T) {
	in := twoJobInstance()
	ok := New(4)
	ok.Add(0, 2, 0, 4)
	ok.Add(1, 1, 0, 3)
	if err := Validate(in, ok, Options{}); err != nil {
		t.Fatalf("the finite schedule: %v", err)
	}
	for _, bad := range []moldable.Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, field := range []string{"start", "duration"} {
			s := ok.Clone()
			if field == "start" {
				s.Placements[1].Start = bad
			} else {
				s.Placements[1].Duration = bad
			}
			if err := Validate(in, s, Options{}); !errors.Is(err, ErrNonFinite) {
				t.Errorf("%s %v: Validate = %v, want ErrNonFinite", field, bad, err)
			}
		}
	}
}
