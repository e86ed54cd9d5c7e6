package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/online"
	"repro/internal/service"
)

// frameSeeds are FuzzDecodeFrame's seeds: the conformance script, and
// each way encoding/json is more lenient than the scanner or fails.
func frameSeeds() []string {
	var seeds []string
	for _, st := range conformanceScript {
		line := st.line
		for strings.Contains(line, "${") {
			i := strings.Index(line, "${")
			j := strings.Index(line[i:], "}")
			line = line[:i] + "1" + line[i+j+1:]
		}
		seeds = append(seeds, line)
	}
	return append(seeds,
		`{"op":"submit","tag":"q1","algo":"auto","schedule":true,"instance":{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98}]}}`,
		`{"Op":"submit","TAG":"q1","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}],"jobs":[]},"instance":{"m":5,"jobs":[]}}`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}],"jobs":[{"type":"perfect","w":9}]}}`,
		`{"op":"submit","instance":{"m":4,"jobs":null},"algo":null}`,
		`{"op":"submit","tag":"😀","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`,
		`{"op":"submit","eps":1e400,"instance":{"m":4,"jobs":[{"type":"perfect","w":1e400}]}}`,
		`{"op":"open_online","m":1.0,"epoch_min":-0,"epoch_grow":5e-324}`,
		`{"op":"arrive","id":1,"t":4.9e-324,"job":{"type":"sequential","t":-0}}`,
		`{"op":"arrive","id":1,"t":1,"job":{"type":"power","w":5,"alpha":0.5},"unknown":{"a":[true,false,null]}}`,
		`{"op":"result","id":00}`,
		`{"op":"result","id":1}{"op":"result","id":2}`,
		`{"op":"result","id":1} x`,
		"{\"op\":\"stats\",\"trace\":true}\t \r",
		`{"op":"hello","tenant":"a\tb"}`,
		// Where the instance's bytes do not run to the closing brace, or
		// do with something else in the frame, a known instance must not
		// be taken: not last, bytes after the frame, a second instance,
		// whitespace inside the span.
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]},"tag":"q2"}`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}} {"op":"stats"}`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}x`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]},"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`,
		`{"op":"submit","instance":{"m":4,"jobs":[{"type":"perfect","w":9}]},"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`,
		"{\"op\":\"submit\",\"instance\": {\"m\":4,\"jobs\":[{\"type\":\"perfect\",\"w\":8}]} \t}\r\n",
	)
}

// FuzzDecodeFrame checks the frame scanner against the path it
// replaces: json.Unmarshal into a Request, then moldable's decoders on
// the raw "instance" and "job" (which FuzzDecodeInstance checks
// against encoding/json in turn). The scanner may decline. When it
// accepts, encoding/json must accept the line too, and every field the
// handlers read must come out the same, float bits and errors
// included. Nothing decoded may alias the line. A line whose instance
// validates is then recorded in a table of known instances and decoded
// again: a resubmission must read the same, whether or not the scanner
// takes the instance from the table.
func FuzzDecodeFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Request
		werr := json.Unmarshal(line, &want)
		var scanned Request
		accepted := scanned.scan(bytes.Clone(line), nil)
		if accepted && werr != nil {
			t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", line, werr)
		}
		buf := bytes.Clone(line)
		got, err := decodeFrame(buf, nil)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("decodeFrame(%q) error %v, encoding/json %v", line, err, werr)
		}
		if err != nil {
			return
		}
		view := func(r Request) string {
			in, inErr := r.instance()
			job, jobErr := r.arrival()
			r.Instance, r.Job = nil, nil
			r.inst, r.instErr, r.job, r.jobErr = nil, nil, nil, nil
			r.instKnown, r.instSpan, r.instFP = false, false, fingerprint{}
			return fmt.Sprintf("%#v\ninstance %#v, %v\nhas job %v: %#v, %v", r, in, inErr, r.hasJob(), job, jobErr)
		}
		gv := view(got)
		for i := range buf {
			buf[i] = 'x'
		}
		if again := view(got); again != gv {
			t.Fatalf("decoded request of %q changed when the line was overwritten:\n%s\n%s", line, gv, again)
		}
		wv := view(want)
		if gv != wv {
			t.Fatalf("decodeFrame(%q) (scanner accepted: %v):\n  got:  %s\n  want: %s", line, accepted, gv, wv)
		}

		known := newKnownInstances()
		first, err := decodeFrame(bytes.Clone(line), known)
		if err != nil {
			t.Fatalf("decodeFrame(%q) with a table: %v", line, err)
		}
		in, err := first.instance()
		if err != nil || in == nil || known.validate(context.Background(), in, &first, 8) != nil {
			return
		}
		again, err := decodeFrame(bytes.Clone(line), known)
		if err != nil {
			t.Fatalf("resubmitted %q: %v", line, err)
		}
		if again.instKnown != first.instSpan {
			t.Errorf("resubmitted %q: taken from the table %v, recorded %v", line, again.instKnown, first.instSpan)
		}
		if av := view(again); av != gv {
			t.Fatalf("resubmitted %q (known: %v):\n  got:  %s\n  want: %s", line, again.instKnown, av, gv)
		}
	})
}

// TestFrameEncoding pins what WireClient writes: the frame that
// encoding/json would have written with the instance or job in its
// raw field, same length, keys in another order, and one the scanner
// reads without declining.
func TestFrameEncoding(t *testing.T) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 3})
	job := moldable.Scaled{J: moldable.Capped{J: moldable.Power{W: 5, Alpha: 0.5}, Max: 3}, Factor: 2}
	raw, err := moldable.MarshalInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	rawJob, err := moldable.MarshalJob(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req, old Request
		key      string
		value    func([]byte) ([]byte, error)
	}{
		{
			req:   Request{Op: "submit", Tag: "q7", Algo: "auto", Eps: 0.25, TimeoutMS: 1e-7, Schedule: true},
			old:   Request{Op: "submit", Tag: "q7", Algo: "auto", Eps: 0.25, TimeoutMS: 1e-7, Schedule: true, Instance: raw},
			key:   "instance",
			value: func(b []byte) ([]byte, error) { return moldable.AppendInstance(b, in) },
		},
		{
			req:   Request{Op: "arrive", ID: 9, T: 1.5},
			old:   Request{Op: "arrive", ID: 9, T: 1.5, Job: rawJob},
			key:   "job",
			value: func(b []byte) ([]byte, error) { return moldable.AppendJob(b, job) },
		},
		{req: Request{Op: "result", ID: 9, Wait: true}, old: Request{Op: "result", ID: 9, Wait: true}},
	} {
		bp, err := encodeFrame(c.req, c.key, c.value)
		if err != nil {
			t.Fatal(err)
		}
		frame := bytes.Clone(*bp)
		releaseFrame(bp)
		old, err := json.Marshal(c.old)
		if err != nil {
			t.Fatal(err)
		}
		if len(frame) != len(old)+1 || frame[len(frame)-1] != '\n' {
			t.Errorf("%s frame is %d bytes, encoding/json wrote %d and a newline", c.req.Op, len(frame), len(old))
		}
		var back Request
		if err := json.Unmarshal(frame, &back); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", c.old) {
			t.Errorf("%s frame decodes to %#v, want %#v", c.req.Op, back, c.old)
		}
		var r Request
		if !r.scan(frame, newKnownInstances()) {
			t.Errorf("the scanner declined a %s frame WireClient writes", c.req.Op)
		}
		if r.instSpan != (c.key == "instance") {
			t.Errorf("%s frame: instance fingerprinted %v", c.req.Op, r.instSpan)
		}
	}
	if _, err := encodeFrame(Request{Op: "submit"}, "instance", func(b []byte) ([]byte, error) {
		return moldable.AppendInstance(b, &moldable.Instance{M: 1, Jobs: []moldable.Job{nil}})
	}); err == nil || !strings.HasPrefix(err.Error(), "encoding instance: job 0: ") {
		t.Errorf("unencodable instance: error %v", err)
	}
}

// recorder is a backend that remembers what each submit and arrival
// carried into the service, as decoded by the serve loop.
type recorder struct {
	*service.Scheduler
	seed     maphash.Seed
	mu       sync.Mutex
	hashes   map[uint64]uint64 // ticket → service.HashInstance of the instance
	arrivals []online.Arrival
}

func (r *recorder) SubmitCtx(ctx context.Context, in *moldable.Instance, opt core.Options, starts bool) *service.Ticket {
	t := r.Scheduler.SubmitCtx(ctx, in, opt, starts)
	h, _ := service.HashInstance(r.seed, in)
	r.mu.Lock()
	r.hashes[t.ID] = h
	r.mu.Unlock()
	return t
}

func (r *recorder) OnlineArrive(ctx context.Context, id uint64, a online.Arrival) ([]online.Event, error) {
	r.mu.Lock()
	r.arrivals = append(r.arrivals, a)
	r.mu.Unlock()
	return r.Scheduler.OnlineArrive(ctx, id, a)
}

// TestPipelinedFramesDoNotAlias pipelines 64 distinct submits on one
// stream without waiting, then 64 arrivals. The read loop's buffer is
// refilled while earlier submits are still being handled off the loop,
// so a decode that kept pointing into it would hand a handler another
// frame's bytes. Each instance must reach the service intact (same
// canonical hash as the client's) and be answered with one processor
// count per job.
func TestPipelinedFramesDoNotAlias(t *testing.T) {
	const count = 64
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	rec := &recorder{Scheduler: svc, seed: maphash.MakeSeed(), hashes: map[uint64]uint64{}}
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	var serveErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		serveErr = ServeLines(context.Background(), rec, inR, outW, ServeConfig{Probes: 8})
		outW.Close()
	}()
	// On an early failure, end the serve loop (and its handlers) before
	// the service closes under them.
	t.Cleanup(func() {
		inW.Close()
		outR.Close()
		<-served
	})
	dec := json.NewDecoder(outR)
	write := func(frames []byte) {
		go func() {
			// A closed pipe means the test already failed and tore down.
			if _, err := inW.Write(frames); err != nil && !errors.Is(err, io.ErrClosedPipe) {
				t.Error(err)
			}
		}()
	}
	frame := func(req Request, key string, value func([]byte) ([]byte, error)) []byte {
		bp, err := encodeFrame(req, key, value)
		if err != nil {
			t.Fatal(err)
		}
		defer releaseFrame(bp)
		return bytes.Clone(*bp)
	}
	read := func() Response {
		var r Response
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Code != "" {
			t.Fatalf("%s: %s", r.Code, r.Error)
		}
		return r
	}

	ins := make([]*moldable.Instance, count)
	var frames []byte
	for i := range ins {
		ins[i] = moldable.Random(moldable.GenConfig{N: 1 + i, M: 64 + i, Seed: uint64(i)})
		frames = append(frames, frame(Request{Op: "submit", Tag: fmt.Sprint(i), Schedule: true}, "instance", func(b []byte) ([]byte, error) {
			return moldable.AppendInstance(b, ins[i])
		})...)
	}
	write(frames)
	ticket := map[uint64]int{}
	for range count {
		r := read()
		var i int
		fmt.Sscan(r.Tag, &i)
		ticket[r.ID] = i
	}
	frames = frames[:0]
	for id := range ticket {
		frames = append(frames, frame(Request{Op: "result", ID: id, Wait: true}, "", nil)...)
	}
	write(frames)
	for range count {
		r := read()
		i := ticket[r.ID]
		want, _ := service.HashInstance(rec.seed, ins[i])
		rec.mu.Lock()
		got := rec.hashes[r.ID]
		rec.mu.Unlock()
		if got != want {
			t.Errorf("submit %d reached the service as another instance (hash %x, want %x)", i, got, want)
		}
		if len(r.Allot) != ins[i].N() {
			t.Errorf("submit %d: %d processor counts for %d jobs", i, len(r.Allot), ins[i].N())
		}
	}

	write(frame(Request{Op: "open_online", Tag: "s", M: 64}, "", nil))
	sess := read().ID
	arrivals := make([]online.Arrival, count)
	frames = frames[:0]
	for i := range arrivals {
		arrivals[i] = online.Arrival{T: moldable.Time(i), Job: moldable.Table{T: []moldable.Time{moldable.Time(2*i + 2), moldable.Time(i + 1)}}}
		frames = append(frames, frame(Request{Op: "arrive", ID: sess, T: float64(arrivals[i].T)}, "job", func(b []byte) ([]byte, error) {
			return moldable.AppendJob(b, arrivals[i].Job)
		})...)
	}
	write(append(frames, `{"op":"shutdown"}`+"\n"...))
	for range count {
		read()
	}
	read()
	<-served
	if serveErr != nil {
		t.Fatal(serveErr)
	}
	if got, want := fmt.Sprintf("%#v", rec.arrivals), fmt.Sprintf("%#v", arrivals); got != want {
		t.Errorf("arrivals reached the service as\n  %s\nwant\n  %s", got, want)
	}
}
