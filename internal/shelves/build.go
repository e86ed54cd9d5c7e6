package shelves

import (
	"repro/internal/arena"
	"repro/internal/gamma"
	"repro/internal/knapsack"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// Options selects the transformation-rule implementation.
type Options struct {
	// Buckets switches rule (ii)'s special case from an exact min-heap
	// over t_j(γ_j(τ)) (O(n log n), §4.1.1) to O(1/δ) buckets of
	// geometrically rounded processing times (§4.3.3). With buckets the
	// one special-case column may exceed the 3τ/2 horizon by up to
	// (BucketRatio−1)·τ, matching the paper's (3/2(1+δ)²+δ)d bound.
	Buckets     bool
	BucketRatio float64 // grid ratio 1+4ρ (> 1); required when Buckets
}

// Result reports a successful build and its diagnostics.
type Result struct {
	Schedule   *schedule.Schedule
	P0, P1, P2 int           // processors used by the three shelves
	BigWork    moldable.Time // work of the big jobs in the shelf schedule
	Reason     string        // non-empty when the build rejected
}

// Rejection reasons. Static strings (not fmt.Sprintf) because probe
// rejections are the common case on the dual-search hot path and must
// not allocate.
const (
	reasonGammaUndef  = "some big job cannot meet τ on m processors"
	reasonWorkBound   = "big-job work exceeds mτ − W_S (Lemma 9 budget)"
	reasonBadRatio    = "bucket ratio must exceed 1"
	reasonRuleIBound  = "job violates monotone time bound under rule (i)"
	reasonGamma3Undef = "γ(3τ/2) undefined for a big job"
	reasonShelvesWide = "shelves need more than m processors"
	reasonSmallNoFit  = "small jobs do not fit (work bound violated)"
)

// Scratch holds the reusable buffers of the shelf machinery (the
// scratch-reuse discipline of internal/arena): the Build-internal
// partition, the classification state of rules (i)–(iii), both heaps,
// the bucket store of the §4.3.3 variant, the free-window step merge,
// and a schedule double buffer. Callers that probe many targets (the
// dual algorithms of internal/mrt and internal/fast) thread one
// Scratch through every Try; schedules built with a scratch are owned
// by it (swap-on-success, see schedule.DoubleBuffer) and remain valid
// only until the next accepted build. The zero value is ready; not
// safe for concurrent use.
type Scratch struct {
	// Part is the caller-side partition buffer: dual algorithms use it
	// for their own Compute at the probe target, while Build uses the
	// private part below for the (possibly different) build target, so
	// the two never alias.
	Part Partition

	part    Partition
	inS1    []bool
	cols    []column
	s1      []colJob
	s2      []colJob
	ch      arena.Heap[catCEntry]
	s2h     arena.Heap[s2Entry]
	buckets [][]catCEntry
	grid    []float64
	fsSteps []stepEnt
	feSteps []stepEnt
	groups  []freeGroup
	sched   schedule.DoubleBuffer
}

// colJob is one job inside an S0 column or shelf.
type colJob struct {
	job   int
	procs int
	start moldable.Time
	dur   moldable.Time
}

// column is a set of processors busy for the whole 3τ/2 window. A
// column holds at most two jobs (rule (i) and the S2 pull-forward
// create singletons; rule (ii) pairs exactly two), so the storage is
// inline — no per-column slice.
type column struct {
	procs int
	jobs  [2]colJob
	njobs int
	end   moldable.Time
}

// catCEntry orders shelf-1 long jobs by processing time (exact heap
// variant) or by rounded bucket key.
type catCEntry struct {
	key moldable.Time // exact or rounded duration
	colJob
	s1idx int // index into the s1 slice (for the special case of rule (ii))
}

// Less orders entries by key for arena.Heap.
func (e catCEntry) Less(o catCEntry) bool { return e.key < o.key }

// s2Entry orders shelf-2 jobs by γ_j(3τ/2) ascending for rule (iii).
type s2Entry struct {
	g3  int
	job int
}

// Less orders entries by γ_j(3τ/2) for arena.Heap.
func (e s2Entry) Less(o s2Entry) bool { return e.g3 < o.g3 }

// stepEnt is one step of the free-window start/end step functions.
type stepEnt struct {
	upto int
	val  moldable.Time
}

// builder is the per-Build state: what the closure-based implementation
// used to capture, laid out as a struct so the hot path allocates
// nothing (closures capturing locals force them to the heap). The
// column and shelf stores live in the Scratch (b.sc.cols, b.sc.s1) so
// early rejects keep their grown capacity without a deferred
// write-back.
type builder struct {
	in          *moldable.Instance
	m           int
	tau         moldable.Time
	horizon     moldable.Time
	opt         Options
	sc          *Scratch
	p0, p1      int
	pendingB    int
	pendingBDur moldable.Time
	bad         bool
}

// pushC stores a category-C entry: exact heap or rounded bucket.
//
//sched:hotpath
func (b *builder) pushC(e catCEntry) {
	if b.opt.Buckets {
		i := knapsack.RoundDownIdx(b.sc.grid, e.dur)
		if i < 0 {
			i = 0
		}
		e.key = b.sc.grid[i]
		b.sc.buckets[i] = append(b.sc.buckets[i], e)
		return
	}
	e.key = e.dur
	b.sc.ch.Push(e)
}

// popMinC removes a minimum-key category-C entry.
//
//sched:hotpath
func (b *builder) popMinC() (catCEntry, bool) {
	if b.opt.Buckets {
		for i := range b.sc.buckets {
			if n := len(b.sc.buckets[i]); n > 0 {
				e := b.sc.buckets[i][n-1]
				b.sc.buckets[i] = b.sc.buckets[i][:n-1]
				return e, true
			}
		}
		return catCEntry{}, false
	}
	if b.sc.ch.Len() == 0 {
		return catCEntry{}, false
	}
	return b.sc.ch.Pop(), true
}

// classify admits a job into shelf S1, immediately applying rules (i)
// and (ii). procs is the job's shelf-1 processor count, dur its time.
//
//sched:hotpath
func (b *builder) classify(j, procs int, dur moldable.Time) {
	switch {
	case dur <= 0.75*b.tau && procs > 1:
		// Rule (i): move to S0 on procs−1 processors.
		d2 := b.in.Jobs[j].Time(procs - 1)
		if d2 > b.horizon*(1+1e-9) {
			b.bad = true // violates monotonicity-derived bound t(γ−1) ≤ 2t(γ)
			return
		}
		b.sc.cols = append(b.sc.cols, column{procs: procs - 1,
			jobs: [2]colJob{{j, procs - 1, 0, d2}}, njobs: 1, end: d2})
		b.p0 += procs - 1
	case dur <= 0.75*b.tau:
		// Rule (ii): pair single-processor short jobs.
		if b.pendingB >= 0 {
			b.sc.cols = append(b.sc.cols, column{procs: 1, jobs: [2]colJob{
				{b.pendingB, 1, 0, b.pendingBDur},
				{j, 1, b.pendingBDur, dur},
			}, njobs: 2, end: b.pendingBDur + dur})
			b.p0++
			b.p1-- // the pending job's processor moves from S1 to S0
			b.pendingB = -1
		} else {
			b.pendingB, b.pendingBDur = j, dur
			b.p1++
		}
	default:
		// Category C: stays in shelf S1.
		e := catCEntry{colJob: colJob{job: j, procs: procs, start: 0, dur: dur}, s1idx: len(b.sc.s1)}
		b.sc.s1 = append(b.sc.s1, e.colJob)
		b.pushC(e)
		b.p1 += procs
	}
}

// Build turns a shelf-1 selection into a feasible schedule of makespan at
// most 3τ/2 (plus the bucket slack, see Options) for ALL jobs, following
// Lemma 7: exhaustively apply transformation rules (i)–(iii), lay the
// shelves out on concrete processors, and re-insert the small jobs
// next-fit (Lemma 9). A false return means τ must be rejected by the caller —
// Build never falsely rejects a τ for which the work bound
// W(J′,τ) ≤ mτ − W_S(τ) holds (Lemmas 6–9).
//
// shelf1 lists job indices selected for shelf S1; jobs that are small at
// τ are ignored (Corollary 10) and mandatory jobs are added
// automatically.
//
// The result is written into res and every buffer comes from sc: a
// warm Scratch makes accepted and rejected builds allocation-free,
// with the produced schedule owned by the scratch (valid until the
// next accepted build; Clone to keep it). A nil scratch uses fresh
// buffers, making the schedule caller-owned.
//
//sched:hotpath
//sched:owns-result
func Build(res *Result, in *moldable.Instance, tau moldable.Time, shelf1 []int, opt Options, sc *Scratch) bool {
	if sc == nil {
		sc = &Scratch{}
	}
	m := in.M
	*res = Result{}
	part := &sc.part
	if !Compute(part, in, tau) {
		res.Reason = reasonGammaUndef
		return false
	}
	inS1 := arena.Zeroed(sc.inS1, in.N())
	sc.inS1 = inS1
	for _, j := range shelf1 {
		inS1[j] = true
	}
	for _, j := range part.Mand {
		inS1[j] = true
	}
	// Work bound of Lemma 9: reject when W(J′,τ) > mτ − W_S(τ).
	res.BigWork = part.ShelfWork(in, inS1)
	budget := moldable.Time(m)*tau - part.WSmall
	if res.BigWork > budget*(1+1e-9)+1e-12 {
		res.Reason = reasonWorkBound
		return false
	}

	sc.cols, sc.s1 = sc.cols[:0], sc.s1[:0]
	b := builder{
		in: in, m: m, tau: tau, horizon: 1.5 * tau, opt: opt, sc: sc,
		pendingB: -1,
	}

	// Long-job (category C) store: exact heap or rounded buckets.
	sc.ch.Reset()
	if opt.Buckets {
		ratio := opt.BucketRatio
		if !(ratio > 1) {
			res.Reason = reasonBadRatio
			return false
		}
		sc.grid = knapsack.GeomAppend(sc.grid[:0], tau/2, tau, ratio)
		if cap(sc.buckets) < len(sc.grid) {
			sc.buckets = make([][]catCEntry, len(sc.grid))
		}
		sc.buckets = sc.buckets[:len(sc.grid)]
		for i := range sc.buckets {
			sc.buckets[i] = sc.buckets[i][:0]
		}
	}

	for _, j := range part.Big {
		if inS1[j] {
			b.classify(j, part.G1[j], in.Jobs[j].Time(part.G1[j]))
		}
	}
	if b.bad {
		res.Reason = reasonRuleIBound
		return false
	}

	// Rule (iii): pull shelf-2 jobs forward while processors are free
	// beside S0 and S1. q = m − p0 − p1 never increases during this loop,
	// so a single pass over the γ_j(3τ/2)-min-heap is exhaustive.
	horizon := b.horizon
	s2h := &sc.s2h
	s2h.Reset()
	for _, j := range part.Big {
		if inS1[j] {
			continue
		}
		g3, ok3 := gamma.Gamma(in.Jobs[j], m, horizon)
		if !ok3 { // cannot happen: t_j(m) ≤ τ < 3τ/2 for big jobs
			res.Reason = reasonGamma3Undef
			return false
		}
		s2h.Push(s2Entry{g3: g3, job: j})
	}
	s2 := sc.s2[:0]
	for s2h.Len() > 0 {
		q := m - b.p0 - b.p1
		if s2h.Min().g3 > q {
			break
		}
		e := s2h.Pop()
		p := e.g3
		dur := in.Jobs[e.job].Time(p)
		if dur > tau {
			// full-window S0 column
			sc.cols = append(sc.cols, column{procs: p,
				jobs: [2]colJob{{e.job, p, 0, dur}}, njobs: 1, end: dur})
			b.p0 += p
		} else {
			// joins shelf S1 with its canonical count γ_j(τ) (= p here)
			b.classify(e.job, part.G1[e.job], in.Jobs[e.job].Time(part.G1[e.job]))
			if b.bad {
				res.Reason = reasonRuleIBound
				return false
			}
		}
	}
	for i := 0; i < s2h.Len(); i++ {
		j := s2h.At(i).job
		s2 = append(s2, colJob{job: j, procs: part.G2[j],
			start: horizon - in.Jobs[j].Time(part.G2[j]), dur: in.Jobs[j].Time(part.G2[j])})
	}
	sc.s2 = s2

	// Rule (ii) special case: stack the one unpaired short job on top of
	// the shortest category-C job if their combined time fits. The
	// category-C host stays in S1, but its first processor — running the
	// host's slice and then the rider — conceptually moves to S0 (it is
	// busy past τ, so shelf S2 must not reuse it): p0 gains 1, p1 loses
	// the rider's old processor and the host's first processor.
	specialS1, riderJob := -1, -1
	var riderDur moldable.Time
	if b.pendingB >= 0 {
		if e, ok := b.popMinC(); ok {
			if e.key+b.pendingBDur <= horizon*(1+1e-12) {
				specialS1 = e.s1idx
				riderJob, riderDur = b.pendingB, b.pendingBDur
				b.p0++
				b.p1 -= 2
				b.pendingB = -1
			}
			// (a popped but unused entry need not be re-pushed: the
			// special case is attempted exactly once, at the end)
		}
	}
	if b.pendingB >= 0 {
		sc.s1 = append(sc.s1, colJob{job: b.pendingB, procs: 1, start: 0, dur: b.pendingBDur})
	}
	// Put the special host block first in the S1 region so that its first
	// processor sits at the region boundary, where shelf S2 can skip it.
	if specialS1 > 0 {
		sc.s1[0], sc.s1[specialS1] = sc.s1[specialS1], sc.s1[0]
		specialS1 = 0
	}

	// Feasibility per Lemma 8.
	p2 := 0
	for _, cj := range s2 {
		p2 += cj.procs
	}
	res.P0, res.P1, res.P2 = b.p0, b.p1, p2
	if b.p0+b.p1 > m || b.p0+p2 > m {
		res.Reason = reasonShelvesWide
		return false
	}

	// Concrete layout. Free windows are emitted as GROUPS of adjacent
	// processors with identical windows — O(n) groups total, never O(m)
	// work, preserving the polylog-in-m running time for huge machines.
	sched := sc.sched.Spare(m)
	groups := sc.groups[:0]
	x := 0
	for ci := range sc.cols {
		col := &sc.cols[ci]
		for k := 0; k < col.njobs; k++ {
			cj := col.jobs[k]
			sched.AddAt(cj.job, cj.procs, cj.start, cj.dur, x)
		}
		groups = append(groups, freeGroup{first: x, count: col.procs, fs: col.end, fe: horizon})
		x += col.procs
	}
	// On processors ≥ x, shelf S1 defines the window starts (busy from
	// time 0) and shelf S2 the window ends (busy until 3τ/2); the two
	// block sequences overlap in processor space but not in time. Both
	// are step functions over [x, m); merge them into groups.
	fsSteps, feSteps := sc.fsSteps[:0], sc.feSteps[:0]
	x1 := x
	for idx, cj := range sc.s1 {
		sched.AddAt(cj.job, cj.procs, 0, cj.dur, x1)
		if idx == specialS1 && specialS1 >= 0 {
			// rider runs on the host's first processor after the host
			sched.AddAt(riderJob, 1, cj.dur, riderDur, x1)
			fsSteps = append(fsSteps, stepEnt{x1 + 1, cj.dur + riderDur})
			if cj.procs > 1 {
				fsSteps = append(fsSteps, stepEnt{x1 + cj.procs, cj.dur})
			}
		} else {
			fsSteps = append(fsSteps, stepEnt{x1 + cj.procs, cj.dur})
		}
		x1 += cj.procs
	}
	fsSteps = append(fsSteps, stepEnt{m, 0}) // idle processors: free from 0
	x2 := x
	if specialS1 >= 0 {
		x2 = x + 1 // the rider's processor is unavailable to shelf S2
		feSteps = append(feSteps, stepEnt{x2, horizon})
	}
	for _, cj := range s2 {
		sched.AddAt(cj.job, cj.procs, cj.start, cj.dur, x2)
		feSteps = append(feSteps, stepEnt{x2 + cj.procs, cj.start})
		x2 += cj.procs
	}
	feSteps = append(feSteps, stepEnt{m, horizon}) // no S2 job: free to 3τ/2
	sc.fsSteps, sc.feSteps = fsSteps, feSteps
	i1, i2 := 0, 0
	for pos := x; pos < m; {
		for i1 < len(fsSteps) && fsSteps[i1].upto <= pos {
			i1++
		}
		for i2 < len(feSteps) && feSteps[i2].upto <= pos {
			i2++
		}
		end := m
		fs, fe := moldable.Time(0), horizon
		if i1 < len(fsSteps) {
			fs = fsSteps[i1].val
			if fsSteps[i1].upto < end {
				end = fsSteps[i1].upto
			}
		}
		if i2 < len(feSteps) {
			fe = feSteps[i2].val
			if feSteps[i2].upto < end {
				end = feSteps[i2].upto
			}
		}
		groups = append(groups, freeGroup{first: pos, count: end - pos, fs: fs, fe: fe})
		pos = end
	}
	sc.groups = groups

	// Small jobs next-fit over grouped free windows (Lemma 9).
	if !insertSmall(in, part, sched, groups) {
		res.Reason = reasonSmallNoFit
		return false
	}
	sc.sched.Commit()
	res.Schedule = sched
	return true
}
