package moldable

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Canonical job stream. An instance's canonical stream is a sequence
// of little-endian 64-bit words: M, the job count, then for each job a
// type tag and the Float64bits of its parameters; a table or piecewise
// job writes its length before its entries, and a Capped or Scaled
// wrapper writes its own tag and parameter before its inner job. Two
// instances write the same stream exactly when they have the same M
// and, job by job, the same types and the same parameter bits, so +0
// and −0 differ and a NaN equals only itself. A wrapper that does not
// change oracle values (CountingJob) writes its inner job.
//
// The stream drives every content-addressed table in the repo: the
// service's instance key (result cache, worker affinity) and the wire
// client's table of encoded instances.

// canonChunk is the stack buffer that batches the stream's words: one
// maphash.Write per canonChunk/8 words. maphash's result depends only
// on the byte stream, so the chunking is invisible in the sums.
const canonChunk = 512

// canonWriter buffers the canonical words bound for hs.
type canonWriter struct {
	hs  []*maphash.Hash
	n   int
	buf [canonChunk]byte
}

// WriteCanonical streams in's canonical words into every hash in hs.
// It returns false when some job's type has no canonical encoding (the
// job set of the JSON wire format); the hashes then hold only a prefix
// of the stream and should be discarded.
func WriteCanonical(in *Instance, hs ...*maphash.Hash) bool {
	w := canonWriter{hs: hs}
	w.word(uint64(in.M))
	w.word(uint64(len(in.Jobs)))
	for _, j := range in.Jobs {
		if !w.job(j) {
			return false
		}
	}
	w.flush()
	return true
}

func (w *canonWriter) word(v uint64) {
	if w.n == len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], v)
	w.n += 8
}

func (w *canonWriter) float(f float64) { w.word(math.Float64bits(f)) }

func (w *canonWriter) flush() {
	for _, h := range w.hs {
		h.Write(w.buf[:w.n])
	}
	w.n = 0
}

// job writes one job's tag and parameters; false means the type has no
// canonical encoding.
func (w *canonWriter) job(j Job) bool {
	switch v := j.(type) {
	case Amdahl:
		w.word(1)
		w.float(v.Seq)
		w.float(v.Par)
	case Power:
		w.word(2)
		w.float(v.W)
		w.float(v.Alpha)
	case PerfectSpeedup:
		w.word(3)
		w.float(v.W)
	case Sequential:
		w.word(4)
		w.float(v.T)
	case Comm:
		w.word(5)
		w.float(v.W)
		w.float(v.C)
	case Table:
		w.word(6)
		w.word(uint64(len(v.T)))
		for _, t := range v.T {
			w.float(t)
		}
	case Piecewise:
		w.word(8)
		w.word(uint64(len(v.Procs)))
		for i := range v.Procs {
			w.word(uint64(v.Procs[i]))
			w.float(v.Times[i])
		}
	case Capped:
		w.word(9)
		w.word(uint64(v.Max))
		return w.job(v.J)
	case Scaled:
		w.word(10)
		w.float(v.Factor)
		return w.job(v.J)
	case *CountingJob:
		return w.job(v.J)
	default:
		return false
	}
	return true
}
