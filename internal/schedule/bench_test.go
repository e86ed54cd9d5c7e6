package schedule_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// BenchmarkValidate checks the schedule linear gives the 256-job
// instance of the serving benchmarks (n = 256, m = 4096), the answer
// check a client runs on every result.
func BenchmarkValidate(b *testing.B) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 3})
	s, _, err := core.ScheduleCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.25})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := schedule.Validate(in, s, schedule.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
