package lt

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// sortedMedian is the pick weightedMedian replaced: sort med under
// tupleLess, then stop at the first tuple whose running weight reaches
// half of the total.
func sortedMedian(med []wtuple) tuple {
	s := slices.Clone(med)
	slices.SortFunc(s, wtupleCmp)
	var sum, cum int64
	for _, wt := range s {
		sum += wt.w
	}
	for _, wt := range s {
		if cum += wt.w; cum*2 >= sum {
			return wt.tuple
		}
	}
	panic("no median")
}

// checkMedian fails t unless weightedMedian picks sortedMedian's tuple
// from med, and only reorders it.
func checkMedian(t *testing.T, med []wtuple, tag string) {
	t.Helper()
	want := sortedMedian(med)
	var sum int64
	for _, wt := range med {
		sum += wt.w
	}
	s := slices.Clone(med)
	if got := weightedMedian(s, sum); got != want {
		t.Fatalf("%s (n=%d): weightedMedian %+v, sorted pick %+v", tag, len(med), got, want)
	}
	slices.SortFunc(s, wtupleCmp)
	sorted := slices.Clone(med)
	slices.SortFunc(sorted, wtupleCmp)
	if !slices.Equal(s, sorted) {
		t.Fatalf("%s (n=%d): weightedMedian lost or changed tuples", tag, len(med))
	}
}

// medianInput returns n tuples, one per job as in a round, in one of
// four layouts: random values, values from a set of three (ties that
// only the job index breaks), ascending, or descending in tupleLess
// order. Weights are random, with an occasional heavy one.
func medianInput(rng *rand.Rand, n int, layout int) []wtuple {
	med := make([]wtuple, n)
	for i := range med {
		w := 1 + rng.Int64N(1<<20)
		if rng.IntN(16) == 0 {
			w = 1 + rng.Int64N(1<<40)
		}
		med[i] = wtuple{tuple{rng.Float64(), i, 1 + rng.IntN(1<<20)}, w}
		if layout == 1 {
			med[i].v = float64(rng.IntN(3))
		}
	}
	switch layout {
	case 2:
		slices.SortFunc(med, wtupleCmp)
	case 3:
		slices.SortFunc(med, func(x, y wtuple) int { return wtupleCmp(y, x) })
	}
	return med
}

// TestWeightedMedianMatchesSort: on random, tied, ascending and
// descending inputs of 1 to 600 tuples, the selection picks the
// sorted scan's tuple.
func TestWeightedMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 0))
	for _, layout := range []int{0, 1, 2, 3} {
		for n := 1; n <= 600; n += 1 + n/8 {
			for it := 0; it < 8; it++ {
				checkMedian(t, medianInput(rng, n, layout), fmt.Sprintf("layout %d", layout))
			}
		}
	}
}

// FuzzWeightedMedian compares the selection with the sorted scan on
// arbitrary inputs: each byte pair of data is one job's tuple, its
// value from the first byte (so values tie often) and its weight from
// the second; layout%4 reorders the tuples as in medianInput.
func FuzzWeightedMedian(f *testing.F) {
	f.Add([]byte{1, 1}, uint8(0))
	f.Add([]byte{3, 1, 2, 9, 1, 1, 0, 200, 3, 3}, uint8(0))
	f.Add(make([]byte, 64), uint8(1))
	f.Add([]byte("the weighted median of a round's tuples"), uint8(2))
	f.Add([]byte("the weighted median of a round's tuples"), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, layout uint8) {
		if len(data) < 2 {
			t.Skip()
		}
		med := make([]wtuple, len(data)/2)
		for i := range med {
			med[i] = wtuple{tuple{float64(data[2*i] % 8), i, int(data[2*i]) + 1}, int64(data[2*i+1]) + 1}
		}
		switch layout % 4 {
		case 2:
			slices.SortFunc(med, wtupleCmp)
		case 3:
			slices.SortFunc(med, func(x, y wtuple) int { return wtupleCmp(y, x) })
		}
		checkMedian(t, med, "fuzz")
	})
}
