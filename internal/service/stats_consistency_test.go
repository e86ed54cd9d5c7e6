package service

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
)

// TestStatsConsistentUnderLoad pins the Stats snapshot fix (ISSUE 9):
// the counters were previously read field-by-field in an order that
// let a mid-burst snapshot report Completed > Submitted (negative
// Pending) or Errors > Completed. Concurrent readers hammer Stats
// while a submission burst is in flight and assert the cross-field
// invariants on every snapshot; run under -race in CI.
func TestStatsConsistentUnderLoad(t *testing.T) {
	s := New(Config{Workers: 4, TicketCap: 64})
	defer s.Close()

	// Distinct tiny instances so the result cache doesn't collapse the
	// burst into one computation.
	ins := make([]*moldable.Instance, 64)
	for i := range ins {
		ins[i] = moldable.Random(moldable.GenConfig{N: 4, M: 16, Seed: uint64(i + 1)})
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				st := s.Stats()
				if st.Pending < 0 {
					t.Errorf("negative pending: %+v", st)
					return
				}
				if st.Completed > st.Submitted {
					t.Errorf("completed %d > submitted %d", st.Completed, st.Submitted)
					return
				}
				if st.Errors > st.Completed {
					t.Errorf("errors %d > completed %d", st.Errors, st.Completed)
					return
				}
				if st.ResultHits > st.Completed {
					t.Errorf("result hits %d > completed %d", st.ResultHits, st.Completed)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				in := ins[(w*200+i)%len(ins)]
				if _, ok := s.Wait(s.SubmitCtx(context.Background(), in, core.Options{Algorithm: core.Linear, Eps: 0.5})); !ok {
					// Evicted by the small TicketCap under load; the counters
					// are what this test is about, not the results.
					continue
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.Pending != 0 || st.Submitted != st.Completed || st.Submitted != 4*200 {
		t.Errorf("final snapshot not settled: %+v", st)
	}
}
