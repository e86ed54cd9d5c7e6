package moldable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/wirejson"
)

// JSON wire format for instances, used by the cmd/ tools and the wire
// protocol. Closed-form job families serialize as their parameters
// (compact encoding!); table jobs serialize their full time list.
//
// The schema is the one encoding/json gives instanceJSON and jobJSON,
// but the serving path reads and writes it by hand: the appender below
// writes json.Marshal's bytes, and the wirejson scanner decodes
// canonical input in one pass, handing anything else to encoding/json.

type jobJSON struct {
	Type   string  `json:"type"`
	Seq    Time    `json:"seq,omitempty"`
	Par    Time    `json:"par,omitempty"`
	W      Time    `json:"w,omitempty"`
	Alpha  float64 `json:"alpha,omitempty"`
	C      Time    `json:"c,omitempty"`
	T      Time    `json:"t,omitempty"`
	Times  []Time  `json:"times,omitempty"`
	Procs  []int   `json:"procs,omitempty"`
	Max    int     `json:"max,omitempty"`
	Factor Time    `json:"factor,omitempty"`
}

type instanceJSON struct {
	M    int       `json:"m"`
	Jobs []jobJSON `json:"jobs"`
}

// MarshalInstance encodes the instance as compact JSON, byte for byte
// what json.Marshal writes for the instance schema. Wrapped jobs
// (Scaled, Capped, CountingJob) are flattened where possible; unknown
// job types are rejected. An "envelope" job was folded into a Table
// when it was decoded, so it encodes as "table".
func MarshalInstance(in *Instance) ([]byte, error) {
	// A closed-form job encodes in about 60 bytes.
	return AppendInstance(make([]byte, 0, 64*(1+len(in.Jobs))), in)
}

// AppendInstance appends MarshalInstance's encoding of in to dst,
// straight from the jobs: no reflection, and no allocation once dst
// has room. On error dst is returned as it was.
func AppendInstance(dst []byte, in *Instance) ([]byte, error) {
	start := len(dst)
	dst = append(dst, `{"m":`...)
	dst = strconv.AppendInt(dst, int64(in.M), 10)
	dst = append(dst, `,"jobs":[`...)
	// The reflection encoder flattened every job before json.Marshal
	// met a NaN or ±Inf, so a job that cannot be serialized wins over
	// an earlier unsupported value.
	var ferr error
	for i, j := range in.Jobs {
		jj, err := encodeJob(j)
		if err != nil {
			return dst[:start], fmt.Errorf("job %d: %w", i, err)
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, err = appendJob(dst, &jj); ferr == nil {
			ferr = err
		}
	}
	if ferr != nil {
		return dst[:start], ferr
	}
	return append(dst, "]}"...), nil
}

// appendJob writes jj as json.Marshal does: fields in declaration
// order, zero values omitted (the omitempty tags). The error is the
// first NaN or ±Inf met; the bytes are then garbage.
func appendJob(dst []byte, jj *jobJSON) ([]byte, error) {
	dst = append(dst, `{"type":"`...)
	dst = append(dst, jj.Type...)
	dst = append(dst, '"')
	var err error
	dst, err = appendField(dst, err, `,"seq":`, jj.Seq)
	dst, err = appendField(dst, err, `,"par":`, jj.Par)
	dst, err = appendField(dst, err, `,"w":`, jj.W)
	dst, err = appendField(dst, err, `,"alpha":`, jj.Alpha)
	dst, err = appendField(dst, err, `,"c":`, jj.C)
	dst, err = appendField(dst, err, `,"t":`, jj.T)
	if len(jj.Times) > 0 {
		dst = append(dst, `,"times":`...)
		sep := byte('[')
		for _, v := range jj.Times {
			dst = append(dst, sep)
			sep = ','
			var e error
			if dst, e = wirejson.AppendFloat(dst, v); err == nil {
				err = e
			}
		}
		dst = append(dst, ']')
	}
	if len(jj.Procs) > 0 {
		dst = append(dst, `,"procs":`...)
		sep := byte('[')
		for _, v := range jj.Procs {
			dst = append(dst, sep)
			sep = ','
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	if jj.Max != 0 {
		dst = append(dst, `,"max":`...)
		dst = strconv.AppendInt(dst, int64(jj.Max), 10)
	}
	dst, err = appendField(dst, err, `,"factor":`, jj.Factor)
	return append(dst, '}'), err
}

// appendField appends key and v unless v is zero (omitempty); err
// carries the first unsupported value.
func appendField(dst []byte, err error, key string, v float64) ([]byte, error) {
	if v == 0 {
		return dst, err
	}
	dst = append(dst, key...)
	dst, e := wirejson.AppendFloat(dst, v)
	if err == nil {
		err = e
	}
	return dst, err
}

func encodeJob(j Job) (jobJSON, error) {
	switch v := j.(type) {
	case Amdahl:
		return jobJSON{Type: "amdahl", Seq: v.Seq, Par: v.Par}, nil
	case Power:
		return jobJSON{Type: "power", W: v.W, Alpha: v.Alpha}, nil
	case PerfectSpeedup:
		return jobJSON{Type: "perfect", W: v.W}, nil
	case Sequential:
		return jobJSON{Type: "sequential", T: v.T}, nil
	case Comm:
		return jobJSON{Type: "comm", W: v.W, C: v.C}, nil
	case Table:
		return jobJSON{Type: "table", Times: v.T}, nil
	case Piecewise:
		return jobJSON{Type: "piecewise", Procs: v.Procs, Times: v.Times}, nil
	case Capped:
		inner, err := encodeJob(v.J)
		if err != nil {
			return jobJSON{}, err
		}
		// Nested caps compose by taking the tighter one.
		if inner.Max == 0 || v.Max < inner.Max {
			inner.Max = v.Max
		}
		return inner, nil
	case Scaled:
		// Scaling commutes with capping and composes multiplicatively, so
		// nested wrappers flatten into one factor on the inner job.
		inner, err := encodeJob(v.J)
		if err != nil {
			return jobJSON{}, err
		}
		if inner.Factor == 0 {
			inner.Factor = 1
		}
		inner.Factor *= v.Factor
		return inner, nil
	case *CountingJob:
		return encodeJob(v.J)
	default:
		return jobJSON{}, fmt.Errorf("moldable: cannot serialize job type %T", j)
	}
}

// UnmarshalInstance decodes an instance from JSON. Canonical input
// (what MarshalInstance writes, in any key order) takes one pass of
// the wirejson scanner straight into the jobs; anything else goes to
// encoding/json, whose reading and errors it matches.
func UnmarshalInstance(data []byte) (*Instance, error) {
	s := wirejson.NewScanner(data)
	if in, err := ScanInstance(&s); s.End() {
		return in, err
	}
	return unmarshalInstanceJSON(data)
}

// unmarshalInstanceJSON is UnmarshalInstance through encoding/json:
// the path for input the scanner declines, and the reference that the
// scanner is fuzzed against.
func unmarshalInstanceJSON(data []byte) (*Instance, error) {
	var raw instanceJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	in := &Instance{M: raw.M}
	for i, jj := range raw.Jobs {
		j, err := decodeJob(jj)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		in.Jobs = append(in.Jobs, j)
	}
	return in, nil
}

// ScanInstance decodes one instance object at the scanner's position,
// for a caller that scans the instance as part of a larger frame. When
// the scanner declines, the results mean nothing and the caller falls
// back to encoding/json. Otherwise they are what UnmarshalInstance
// returns for the same bytes, job errors included.
func ScanInstance(s *wirejson.Scanner) (*Instance, error) {
	in := &Instance{}
	var err error
	var seenM, seenJobs bool
	if !s.Open('{') {
		return nil, nil
	}
	for n := 0; s.More('}', n); n++ {
		switch string(s.Key()) {
		case "m":
			if seenM {
				s.Decline()
			}
			seenM = true
			in.M = s.Int()
		case "jobs":
			if seenJobs || !s.Open('[') {
				s.Decline()
			}
			seenJobs = true
			// encoding/json reads every job before decodeJob sees the
			// first: keep scanning past a job error so that a later
			// decline still hands the frame to it.
			for i := 0; s.More(']', i); i++ {
				var jj jobJSON
				scanJob(s, &jj)
				if err != nil || !s.OK() {
					continue
				}
				j, e := decodeJob(jj)
				if e != nil {
					err = fmt.Errorf("job %d: %w", i, e)
					continue
				}
				in.Jobs = append(in.Jobs, j)
			}
		default:
			s.Decline()
		}
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

// ScanJob decodes one job object at the scanner's position, on the
// terms of ScanInstance.
func ScanJob(s *wirejson.Scanner) (Job, error) {
	var jj jobJSON
	scanJob(s, &jj)
	if !s.OK() {
		return nil, nil
	}
	return decodeJob(jj)
}

// scanJob reads one job object into jj; a key outside the schema, or
// one seen twice, declines.
func scanJob(s *wirejson.Scanner, jj *jobJSON) {
	if !s.Open('{') {
		return
	}
	var seen uint16
	for n := 0; s.More('}', n); n++ {
		var bit uint16
		switch string(s.Key()) {
		case "type":
			bit, jj.Type = 1<<0, jobType(s.Str())
		case "seq":
			bit, jj.Seq = 1<<1, s.Float()
		case "par":
			bit, jj.Par = 1<<2, s.Float()
		case "w":
			bit, jj.W = 1<<3, s.Float()
		case "alpha":
			bit, jj.Alpha = 1<<4, s.Float()
		case "c":
			bit, jj.C = 1<<5, s.Float()
		case "t":
			bit, jj.T = 1<<6, s.Float()
		case "times":
			bit, jj.Times = 1<<7, scanTimes(s)
		case "procs":
			bit, jj.Procs = 1<<8, scanProcs(s)
		case "max":
			bit, jj.Max = 1<<9, s.Int()
		case "factor":
			bit, jj.Factor = 1<<10, s.Float()
		default:
			s.Decline()
		}
		if seen&bit != 0 {
			s.Decline()
		}
		seen |= bit
	}
}

// jobType returns the job's type name without copying the scanned
// bytes for the known families.
func jobType(b []byte) string {
	switch string(b) {
	case "amdahl":
		return "amdahl"
	case "power":
		return "power"
	case "perfect":
		return "perfect"
	case "sequential":
		return "sequential"
	case "comm":
		return "comm"
	case "table":
		return "table"
	case "envelope":
		return "envelope"
	case "piecewise":
		return "piecewise"
	}
	return string(b)
}

// scanTimes and scanProcs read a number array; like encoding/json they
// return an empty, non-nil slice for [].
func scanTimes(s *wirejson.Scanner) []Time {
	out := []Time{}
	if s.Open('[') {
		for n := 0; s.More(']', n); n++ {
			out = append(out, s.Float())
		}
	}
	return out
}

func scanProcs(s *wirejson.Scanner) []int {
	out := []int{}
	if s.Open('[') {
		for n := 0; s.More(']', n); n++ {
			out = append(out, s.Int())
		}
	}
	return out
}

func decodeJob(jj jobJSON) (Job, error) {
	var j Job
	switch jj.Type {
	case "amdahl":
		j = Amdahl{Seq: jj.Seq, Par: jj.Par}
	case "power":
		j = Power{W: jj.W, Alpha: jj.Alpha}
	case "perfect":
		j = PerfectSpeedup{W: jj.W}
	case "sequential":
		j = Sequential{T: jj.T}
	case "comm":
		j = Comm{W: jj.W, C: jj.C}
	case "table":
		if len(jj.Times) == 0 {
			return nil, fmt.Errorf("moldable: table job with no times")
		}
		j = Table{T: jj.Times}
	case "envelope":
		if len(jj.Times) == 0 {
			return nil, fmt.Errorf("moldable: envelope job with no times")
		}
		j = Envelope(jj.Times)
	case "piecewise":
		pw, err := NewPiecewise(jj.Procs, jj.Times)
		if err != nil {
			return nil, err
		}
		j = pw
	default:
		return nil, fmt.Errorf("moldable: unknown job type %q", jj.Type)
	}
	if jj.Max > 0 {
		j = Capped{J: j, Max: jj.Max}
	}
	if jj.Factor > 0 && jj.Factor != 1 {
		j = Scaled{J: j, Factor: jj.Factor}
	}
	return j, nil
}

// MarshalJob encodes a single job in the same wire schema that
// instances embed (the "jobs" array element). It exists for formats
// that carry jobs outside an instance — the arrival-trace lines of
// internal/online are (timestamp, job) pairs, one JSON object per line.
func MarshalJob(j Job) ([]byte, error) {
	return AppendJob(nil, j)
}

// AppendJob appends MarshalJob's encoding of j to dst. On error dst is
// returned as it was.
func AppendJob(dst []byte, j Job) ([]byte, error) {
	jj, err := encodeJob(j)
	if err != nil {
		return dst, err
	}
	out, err := appendJob(dst, &jj)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// UnmarshalJob decodes a single job encoded by MarshalJob (or a "jobs"
// array element of the instance schema), through the scanner when the
// input is canonical and encoding/json otherwise.
func UnmarshalJob(data []byte) (Job, error) {
	s := wirejson.NewScanner(data)
	if j, err := ScanJob(&s); s.End() {
		return j, err
	}
	var jj jobJSON
	if err := json.Unmarshal(data, &jj); err != nil {
		return nil, err
	}
	return decodeJob(jj)
}

// WriteInstance writes the JSON encoding of in to w, indented two
// spaces for a person to read: the bytes json.MarshalIndent writes.
func WriteInstance(w io.Writer, in *Instance) error {
	data, err := MarshalInstance(in)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, data, "", "  "); err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// ReadInstance reads a JSON instance from r.
func ReadInstance(r io.Reader) (*Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return UnmarshalInstance(data)
}
