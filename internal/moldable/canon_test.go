package moldable

import (
	"hash/maphash"
	"math"
	"testing"
)

// otherJob is a job type outside the wire format's job set.
type otherJob struct{}

func (otherJob) Time(int) Time { return 1 }

// TestWriteCanonical: the stream tells apart what encodes apart, and
// more (the bits of every parameter), looks through CountingJob, and
// refuses a job type the wire format cannot carry.
func TestWriteCanonical(t *testing.T) {
	seed := maphash.MakeSeed()
	sum := func(in *Instance) (uint64, bool) {
		var h maphash.Hash
		h.SetSeed(seed)
		ok := WriteCanonical(in, &h)
		return h.Sum64(), ok
	}
	base := &Instance{M: 4, Jobs: []Job{Table{T: []Time{4, 2, 0}}}}
	key, ok := sum(base)
	if !ok {
		t.Fatal("a table instance has no canonical stream")
	}
	same := []*Instance{
		{M: 4, Jobs: []Job{Table{T: []Time{4, 2, 0}}}},
		{M: 4, Jobs: []Job{&CountingJob{J: Table{T: []Time{4, 2, 0}}}}},
	}
	for _, in := range same {
		if k, _ := sum(in); k != key {
			t.Errorf("%v streams apart from %v", in.Jobs, base.Jobs)
		}
	}
	apart := []*Instance{
		{M: 5, Jobs: []Job{Table{T: []Time{4, 2, 0}}}},
		{M: 4, Jobs: []Job{Table{T: []Time{4, 2, math.Copysign(0, -1)}}}},
		{M: 4, Jobs: []Job{Table{T: []Time{4, 2}}}},
		{M: 4, Jobs: []Job{Capped{J: Table{T: []Time{4, 2, 0}}, Max: 4}}},
		{M: 4, Jobs: []Job{Scaled{J: Table{T: []Time{4, 2, 0}}, Factor: 1}}},
		{M: 4},
	}
	for _, in := range apart {
		if k, _ := sum(in); k == key {
			t.Errorf("%v streams like %v", in.Jobs, base.Jobs)
		}
	}
	if _, ok := sum(&Instance{M: 4, Jobs: []Job{Sequential{T: 1}, otherJob{}}}); ok {
		t.Error("a job type outside the wire format has a canonical stream")
	}
}
