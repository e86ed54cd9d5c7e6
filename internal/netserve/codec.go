package netserve

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/moldable"
	"repro/internal/schedule"
	"repro/internal/wirejson"
)

// decodeFrame decodes one request line. Canonical frames — what
// WireClient writes, keys in any order — take one wirejson pass that
// decodes "instance" and "job" straight into jobs, or takes an
// instance known already from known (nil: none). On any other line
// the scanner declines and encoding/json reads the same bytes, so
// lenient input and every error text behave as they always have.
// Nothing in the returned Request aliases line.
func decodeFrame(line []byte, known *knownInstances) (Request, error) {
	var req Request
	if req.scan(line, known) {
		return req, nil
	}
	req = Request{}
	err := json.Unmarshal(line, &req)
	return req, err
}

// Bits of the frame scanners' repeated-key check, one per wire key of
// a request, a response or an event.
const (
	keyOp = uint64(1) << iota
	keyTag
	keyID
	keyWait
	keyAlgo
	keyEps
	keyValidate
	keyTimeoutMS
	keyInstance
	keySchedule
	keyTenant
	keyM
	keyPolicy
	keyEpochMin
	keyEpochGrow
	keyT
	keyJob
	keyTraceID
	keyTrace
	keyError
	keyCode
	keyDone
	keyCached
	keyAlgorithm
	keyMakespan
	keyLowerBound
	keyRatio
	keyIterations
	keyElapsedMS
	keyAllot
	keyStarts
	keyEvents
	keyMeanWait
	keyMeanFlow
	keyMaxFlow
	keyUtil
	keyReplans
	keyFallbacks
	keyFinished
	keyKind
	keyProcs
	keyFree
	keyPending
	keyFallback
)

// scan fills r from a canonical frame in one pass and reports whether
// it could; on false r holds garbage. An instance that known holds is
// taken from it rather than decoded (scanInstance); known may be nil.
func (r *Request) scan(line []byte, known *knownInstances) bool {
	s := wirejson.NewScanner(line)
	if !s.Open('{') {
		return false
	}
	var seen uint64
	for n := 0; s.More('}', n); n++ {
		var bit uint64
		switch string(s.Key()) {
		case "op":
			bit, r.Op = keyOp, string(s.Str())
		case "tag":
			bit, r.Tag = keyTag, string(s.Str())
		case "id":
			bit, r.ID = keyID, s.Uint()
		case "wait":
			bit, r.Wait = keyWait, s.Bool()
		case "algo":
			bit, r.Algo = keyAlgo, string(s.Str())
		case "eps":
			bit, r.Eps = keyEps, s.Float()
		case "validate":
			bit, r.Validate = keyValidate, s.Bool()
		case "timeout_ms":
			bit, r.TimeoutMS = keyTimeoutMS, s.Float()
		case "instance":
			bit = keyInstance
			r.scanInstance(&s, line, known)
		case "schedule":
			bit, r.Schedule = keySchedule, s.Bool()
		case "tenant":
			bit, r.Tenant = keyTenant, string(s.Str())
		case "m":
			bit, r.M = keyM, s.Int()
		case "policy":
			bit, r.Policy = keyPolicy, string(s.Str())
		case "epoch_min":
			bit, r.EpochMin = keyEpochMin, s.Float()
		case "epoch_grow":
			bit, r.EpochGrow = keyEpochGrow, s.Float()
		case "t":
			bit, r.T = keyT, s.Float()
		case "job":
			bit = keyJob
			r.job, r.jobErr = moldable.ScanJob(&s)
		case "trace_id":
			bit, r.TraceID = keyTraceID, string(s.Str())
		case "trace":
			bit, r.Trace = keyTrace, s.Bool()
		default:
			s.Decline()
		}
		if seen&bit != 0 {
			s.Decline()
		}
		seen |= bit
	}
	return s.End()
}

// instance returns the submitted instance: the frame scanner's decode
// when it read one, otherwise a decode of the raw field.
func (r *Request) instance() (*moldable.Instance, error) {
	if r.inst != nil || r.instErr != nil {
		return r.inst, r.instErr
	}
	return moldable.UnmarshalInstance(r.Instance)
}

// hasJob reports whether an arrive frame carries a job at all.
func (r *Request) hasJob() bool {
	return r.job != nil || r.jobErr != nil || len(r.Job) > 0
}

// arrival returns the arriving job, decoded as instance decodes.
func (r *Request) arrival() (moldable.Job, error) {
	if r.job != nil || r.jobErr != nil {
		return r.job, r.jobErr
	}
	return moldable.UnmarshalJob(r.Job)
}

// decodeResponse decodes one response line as decodeFrame decodes a
// request: the frames the server's appenders write take one wirejson
// pass; any other line, a stats or traces payload included, is read by
// encoding/json. Nothing in the returned Response aliases line.
func decodeResponse(line []byte) (Response, error) {
	var r Response
	if r.scan(line) {
		return r, nil
	}
	r = Response{}
	err := json.Unmarshal(line, &r)
	return r, err
}

// scan fills r from a canonical response frame in one pass and reports
// whether it could; on false r holds garbage.
func (r *Response) scan(line []byte) bool {
	s := wirejson.NewScanner(line)
	if !s.Open('{') {
		return false
	}
	var seen uint64
	for n := 0; s.More('}', n); n++ {
		var bit uint64
		switch string(s.Key()) {
		case "op":
			bit, r.Op = keyOp, string(s.Str())
		case "tag":
			bit, r.Tag = keyTag, string(s.Str())
		case "id":
			bit, r.ID = keyID, s.Uint()
		case "error":
			bit, r.Error = keyError, string(s.Str())
		case "code":
			bit, r.Code = keyCode, string(s.Str())
		case "tenant":
			bit, r.Tenant = keyTenant, string(s.Str())
		case "done":
			done := s.Bool()
			bit, r.Done = keyDone, &done
		case "cached":
			bit, r.Cached = keyCached, s.Bool()
		case "algorithm":
			bit, r.Algorithm = keyAlgorithm, string(s.Str())
		case "makespan":
			bit, r.Makespan = keyMakespan, s.Float()
		case "lowerbound":
			bit, r.LowerBound = keyLowerBound, s.Float()
		case "ratio":
			bit, r.Ratio = keyRatio, s.Float()
		case "iterations":
			bit, r.Iterations = keyIterations, s.Int()
		case "elapsed_ms":
			bit, r.ElapsedMS = keyElapsedMS, s.Float()
		case "allot":
			bit, r.Allot = keyAllot, scanInts(&s)
		case "starts":
			bit, r.Starts = keyStarts, scanFloats(&s)
		case "trace_id":
			bit, r.TraceID = keyTraceID, string(s.Str())
		case "events":
			bit, r.Events = keyEvents, scanEvents(&s)
		case "mean_wait":
			bit, r.MeanWait = keyMeanWait, s.Float()
		case "mean_flow":
			bit, r.MeanFlow = keyMeanFlow, s.Float()
		case "max_flow":
			bit, r.MaxFlow = keyMaxFlow, s.Float()
		case "utilization":
			bit, r.Util = keyUtil, s.Float()
		case "replans":
			bit, r.Replans = keyReplans, s.Int()
		case "fallbacks":
			bit, r.Fallbacks = keyFallbacks, s.Int()
		case "finished":
			bit, r.Finished = keyFinished, s.Int()
		default: // "stats" and "traces" among them
			s.Decline()
		}
		if seen&bit != 0 {
			s.Decline()
		}
		seen |= bit
	}
	return s.End()
}

// scanInts reads an array of integers, sized up front; an empty one is
// non-nil, as encoding/json leaves it.
func scanInts(s *wirejson.Scanner) []int {
	if !s.Open('[') {
		return nil
	}
	v := make([]int, 0, s.Elems())
	for n := 0; s.More(']', n); n++ {
		v = append(v, s.Int())
	}
	return v
}

// scanFloats reads an array of numbers, like scanInts.
func scanFloats(s *wirejson.Scanner) []float64 {
	if !s.Open('[') {
		return nil
	}
	v := make([]float64, 0, s.Elems())
	for n := 0; s.More(']', n); n++ {
		v = append(v, s.Float())
	}
	return v
}

// scanEvents reads an array of WireEvent objects.
func scanEvents(s *wirejson.Scanner) []WireEvent {
	if !s.Open('[') {
		return nil
	}
	evs := []WireEvent{}
	for n := 0; s.More(']', n); n++ {
		evs = append(evs, WireEvent{})
		e := &evs[len(evs)-1]
		if !s.Open('{') {
			return nil
		}
		var seen uint64
		for k := 0; s.More('}', k); k++ {
			var bit uint64
			switch string(s.Key()) {
			case "t":
				bit, e.T = keyT, s.Float()
			case "kind":
				bit, e.Kind = keyKind, string(s.Str())
			case "job":
				bit, e.Job = keyJob, s.Int()
			case "procs":
				bit, e.Procs = keyProcs, s.Int()
			case "free":
				bit, e.Free = keyFree, s.Int()
			case "pending":
				bit, e.Pending = keyPending, s.Int()
			case "algo":
				bit, e.Algo = keyAlgo, string(s.Str())
			case "fallback":
				bit, e.Fallback = keyFallback, s.Bool()
			default:
				s.Decline()
			}
			if seen&bit != 0 {
				s.Decline()
			}
			seen |= bit
		}
	}
	return evs
}

// respFrame is one writer's reused response buffer: the frame's bytes,
// and a job → placement index, so that a result's allot and starts come
// out in job order however the schedule lists its placements.
type respFrame struct {
	b   []byte
	pos []int
	ok  bool // no value met so far needs encoding/json
}

// encode renders r into f.b as the line json.Encoder.Encode writes for
// it, newline included, and reports whether it could. It declines a
// frame outside what the appenders cover: a stats or traces payload,
// Allot or Starts set directly rather than through the schedule, a
// string that encoding/json escapes, a NaN or ±Inf. The caller then
// hands r to encoding/json, which writes the same bytes or fails with
// its own error.
func (f *respFrame) encode(r *Response) bool {
	if r.Stats != nil || len(r.Traces) > 0 || len(r.Allot) > 0 || len(r.Starts) > 0 {
		return false
	}
	f.b, f.ok = append(f.b[:0], `{"op":`...), true
	f.quote(r.Op)
	f.str(`,"tag":`, r.Tag)
	f.uint(`,"id":`, r.ID)
	f.str(`,"error":`, r.Error)
	f.str(`,"code":`, r.Code)
	f.str(`,"tenant":`, r.Tenant)
	if r.Done != nil {
		f.b = append(f.b, `,"done":`...)
		f.b = strconv.AppendBool(f.b, *r.Done)
	}
	if r.Cached {
		f.b = append(f.b, `,"cached":true`...)
	}
	f.str(`,"algorithm":`, r.Algorithm)
	f.float(`,"makespan":`, r.Makespan)
	f.float(`,"lowerbound":`, r.LowerBound)
	f.float(`,"ratio":`, r.Ratio)
	f.int(`,"iterations":`, r.Iterations)
	f.float(`,"elapsed_ms":`, r.ElapsedMS)
	if r.sched != nil {
		f.placements(r.sched.Placements, r.withStarts)
	}
	f.str(`,"trace_id":`, r.TraceID)
	if len(r.Events) > 0 {
		f.b = append(f.b, `,"events":`...)
		sep := byte('[')
		for i := range r.Events {
			ev := &r.Events[i]
			f.b = append(append(f.b, sep), `{"t":`...)
			sep = ','
			f.num(ev.T)
			f.b = append(f.b, `,"kind":`...)
			f.quote(ev.Kind)
			f.b = append(f.b, `,"job":`...)
			f.b = strconv.AppendInt(f.b, int64(ev.Job), 10)
			f.int(`,"procs":`, ev.Procs)
			f.b = append(f.b, `,"free":`...)
			f.b = strconv.AppendInt(f.b, int64(ev.Free), 10)
			f.int(`,"pending":`, ev.Pending)
			f.str(`,"algo":`, ev.Algo)
			if ev.Fallback {
				f.b = append(f.b, `,"fallback":true`...)
			}
			f.b = append(f.b, '}')
		}
		f.b = append(f.b, ']')
	}
	f.float(`,"mean_wait":`, r.MeanWait)
	f.float(`,"mean_flow":`, r.MeanFlow)
	f.float(`,"max_flow":`, r.MaxFlow)
	f.float(`,"utilization":`, r.Util)
	f.int(`,"replans":`, r.Replans)
	f.int(`,"fallbacks":`, r.Fallbacks)
	f.int(`,"finished":`, r.Finished)
	f.b = append(f.b, '}', '\n')
	return f.ok
}

// placements appends allot, and starts when asked, in job order: the
// values fill gives Allot and Starts, a job's last placement winning.
// A job index out of range declines when starts are asked for, since
// fill's starts loop fails on it.
func (f *respFrame) placements(ps []schedule.Placement, starts bool) {
	n := len(ps)
	if n == 0 {
		return
	}
	if cap(f.pos) < n {
		f.pos = make([]int, n)
	}
	pos := f.pos[:n]
	for j := range pos {
		pos[j] = -1
	}
	for i, p := range ps {
		if p.Job >= 0 && p.Job < n {
			pos[p.Job] = i
		} else if starts {
			f.ok = false
			return
		}
	}
	f.b = append(f.b, `,"allot":`...)
	sep := byte('[')
	for _, i := range pos {
		f.b = append(f.b, sep)
		sep = ','
		procs := 0
		if i >= 0 {
			procs = ps[i].Procs
		}
		f.b = strconv.AppendInt(f.b, int64(procs), 10)
	}
	f.b = append(f.b, ']')
	if !starts {
		return
	}
	f.b = append(f.b, `,"starts":`...)
	sep = '['
	for _, i := range pos {
		f.b = append(f.b, sep)
		sep = ','
		var start moldable.Time
		if i >= 0 {
			start = ps[i].Start
		}
		f.num(start)
	}
	f.b = append(f.b, ']')
}

// fill sets Allot and Starts from the schedule that respFrame reads in
// place, for the encoding/json path.
func (r *Response) fill() {
	if r.sched == nil {
		return
	}
	ps := r.sched.Placements
	r.Allot = r.sched.Allotment(len(ps))
	if r.withStarts {
		r.Starts = make([]moldable.Time, len(ps))
		for _, p := range ps {
			r.Starts[p.Job] = p.Start
		}
	}
	r.sched = nil
}

// The member appenders: encode calls them in declaration order, and
// they omit zero values as the omitempty tags do. ok turns false for
// good at the first value encoding/json would write otherwise.

func (f *respFrame) quote(s string) {
	var ok bool
	if f.b, ok = wirejson.AppendString(f.b, s); !ok {
		f.ok = false
	}
}

func (f *respFrame) num(v float64) {
	var err error
	if f.b, err = wirejson.AppendFloat(f.b, v); err != nil {
		f.ok = false
	}
}

func (f *respFrame) str(key, s string) {
	if s != "" {
		f.b = append(f.b, key...)
		f.quote(s)
	}
}

func (f *respFrame) float(key string, v float64) {
	if v != 0 {
		f.b = append(f.b, key...)
		f.num(v)
	}
}

func (f *respFrame) int(key string, v int) {
	if v != 0 {
		f.b = append(f.b, key...)
		f.b = strconv.AppendInt(f.b, int64(v), 10)
	}
}

func (f *respFrame) uint(key string, v uint64) {
	if v != 0 {
		f.b = append(f.b, key...)
		f.b = strconv.AppendUint(f.b, v, 10)
	}
}

// framePool recycles WireClient's request buffers; one holding an
// instance is as large as its encoding, so the biggest are dropped
// rather than pinned.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 1 << 20

// encodeFrame renders req as one request line in a pooled buffer. A
// non-nil value appends the instance or job under key as the frame's
// last member, written by the moldable appender straight from the
// jobs: it never passes through encoding/json's compactor. The errors
// are those of encoding the value first and the frame second:
// "encoding <key>: …", then ErrUnavailable. Return the buffer with
// releaseFrame.
func encodeFrame(req Request, key string, value func([]byte) ([]byte, error)) (*[]byte, error) {
	head, herr := json.Marshal(req)
	bp := framePool.Get().(*[]byte)
	b := append((*bp)[:0], head...)
	if value != nil {
		if len(b) > 0 {
			b = b[:len(b)-1] // the closing brace
		}
		b = append(append(append(b, ',', '"'), key...), '"', ':')
		var err error
		if b, err = value(b); err != nil {
			releaseFrame(bp)
			return nil, fmt.Errorf("encoding %s: %w", key, err)
		}
		b = append(b, '}')
	}
	if herr != nil {
		releaseFrame(bp)
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, herr)
	}
	*bp = append(b, '\n')
	return bp, nil
}

func releaseFrame(bp *[]byte) {
	if cap(*bp) <= maxPooledFrame {
		framePool.Put(bp)
	}
}
