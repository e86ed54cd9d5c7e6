package netserve

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/moldable"
	"repro/internal/wirejson"
)

// decodeFrame decodes one request line. Canonical frames — what
// WireClient writes, keys in any order — take one wirejson pass that
// decodes "instance" and "job" straight into jobs. On any other line
// the scanner declines and encoding/json reads the same bytes, so
// lenient input and every error text behave as they always have.
// Nothing in the returned Request aliases line.
func decodeFrame(line []byte) (Request, error) {
	var req Request
	if req.scan(line) {
		return req, nil
	}
	req = Request{}
	err := json.Unmarshal(line, &req)
	return req, err
}

// Bits of Request.scan's repeated-key check, one per wire key.
const (
	keyOp = 1 << iota
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
)

// scan fills r from a canonical frame in one pass and reports whether
// it could; on false r holds garbage.
func (r *Request) scan(line []byte) bool {
	s := wirejson.NewScanner(line)
	if !s.Open('{') {
		return false
	}
	var seen uint32
	for n := 0; s.More('}', n); n++ {
		var bit uint32
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
			r.inst, r.instErr = moldable.ScanInstance(&s)
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
