package core

import (
	"context"
	"testing"

	"repro/internal/moldable"
)

// TestAlg3AndLinearDiffer pins two instances on which the §4.3.3
// buckets that set Linear apart from Alg3 change the makespan, one in
// each direction. The golden corpus gives both the same digest, so
// without these a change that left the bucket branch dead would pass.
func TestAlg3AndLinearDiffer(t *testing.T) {
	cases := []struct {
		cfg          moldable.GenConfig
		eps          float64
		alg3, linear moldable.Time
	}{
		{moldable.GenConfig{N: 12, M: 100, Seed: 4}, 0.8, 110.37006751136015, 112.91519508105462},
		{moldable.GenConfig{N: 64, M: 500, Seed: 9}, 0.1, 225.53203068807775, 225.35314257042194},
	}
	for _, tc := range cases {
		in := moldable.Random(tc.cfg)
		for _, want := range []struct {
			algo     Algorithm
			makespan moldable.Time
		}{{Alg3, tc.alg3}, {Linear, tc.linear}} {
			_, rep, err := ScheduleCtx(context.Background(), in, Options{Algorithm: want.algo, Eps: tc.eps, Validate: true})
			if err != nil {
				t.Fatalf("%v on N=%d M=%d Seed=%d ε=%g: %v", want.algo, tc.cfg.N, tc.cfg.M, tc.cfg.Seed, tc.eps, err)
			}
			if rep.Makespan != want.makespan {
				t.Errorf("%v on N=%d M=%d Seed=%d ε=%g: makespan %v, want %v",
					want.algo, tc.cfg.N, tc.cfg.M, tc.cfg.Seed, tc.eps, rep.Makespan, want.makespan)
			}
		}
	}
}
