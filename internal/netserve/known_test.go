package netserve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/obs"
	"repro/internal/service"
)

// pipeSession runs ServeLines against b on in-process pipes and
// returns a lockstep connection to it; the session ends at cleanup.
func pipeSession(t *testing.T, b Backend, cfg ServeConfig) *lockConn {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	served := make(chan error, 1)
	go func() {
		served <- ServeLines(context.Background(), b, inR, outW, cfg)
		outW.Close()
	}()
	t.Cleanup(func() {
		inW.Close()
		outR.Close()
		if err := <-served; err != nil {
			t.Errorf("serve loop: %v", err)
		}
	})
	return &lockConn{t: t, w: inW, r: bufio.NewReader(outR)}
}

func (k *knownInstances) len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.m)
}

// exchange writes one request line and returns the raw frame answering
// it.
func (c *lockConn) exchange(line string) string {
	c.t.Helper()
	if _, err := io.WriteString(c.w, line+"\n"); err != nil {
		c.t.Fatalf("writing request %q: %v", line, err)
	}
	frame, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("reading response to %q: %v", line, err)
	}
	return frame
}

// submitLine is a submit frame as WireClient writes it: the instance
// last.
func submitLine(t testing.TB, head string, in *moldable.Instance) string {
	t.Helper()
	b, err := moldable.AppendInstance([]byte(head+`,"instance":`), in)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "}"
}

// TestKnownInstanceDeadline resubmits known bytes under an expired
// deadline: the probes are skipped, the context check is not, so the
// reply is the canceled frame a first submission gets.
func TestKnownInstanceDeadline(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	const inst = `"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`
	const late = `{"op":"submit","tag":"e7","trace_id":"late","timeout_ms":1e-7,` + inst
	known := newKnownInstances()
	c := pipeSession(t, svc, ServeConfig{Probes: 64, known: known})
	if r := c.roundTrip(`{"op":"submit","tag":"a",` + inst); r.Code != "" {
		t.Fatalf("first submit: %s: %s", r.Code, r.Error)
	}
	if req, err := decodeFrame([]byte(late), known); err != nil || !req.instKnown {
		t.Fatalf("the late frame's instance is not known: %v", err)
	}
	got := c.exchange(late)
	want := pipeSession(t, svc, ServeConfig{Probes: 64}).exchange(late)
	if got != want {
		t.Errorf("known instance past its deadline answered\n  %s want\n  %s", got, want)
	}
	if !strings.Contains(got, `"error":"invalid instance: scheduling canceled: `) || !strings.Contains(got, `"code":"canceled"`) {
		t.Errorf("late submit answered %s", got)
	}
}

// TestKnownInstanceRejectsNotRecorded submits a non-monotone instance
// twice: both get the same not_monotone frame, and the table records
// nothing.
func TestKnownInstanceRejectsNotRecorded(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	const line = `{"op":"submit","tag":"nm","trace_id":"nm","instance":{"m":4,"jobs":[{"type":"table","times":[2,5]}]}}`
	known := newKnownInstances()
	c := pipeSession(t, svc, ServeConfig{Probes: 64, known: known})
	first, second := c.exchange(line), c.exchange(line)
	if first != second {
		t.Errorf("resubmitted reject answered\n  %s after\n  %s", second, first)
	}
	if !strings.Contains(first, `"code":"not_monotone"`) {
		t.Errorf("non-monotone submit answered %s", first)
	}
	if n := known.len(); n != 0 {
		t.Errorf("table holds %d instances after two rejects", n)
	}
}

// TestKnownInstanceSizeBound checks that an instance whose encoding
// exceeds maxKnownBytes is validated but not recorded.
func TestKnownInstanceSizeBound(t *testing.T) {
	line := []byte(submitLine(t, `{"op":"submit"`, moldable.Random(moldable.GenConfig{N: 2048, M: 64, Seed: 2})))
	if len(line) <= maxKnownBytes {
		t.Fatalf("a %d-byte frame does not exceed the bound", len(line))
	}
	known := newKnownInstances()
	for range 2 {
		req, err := decodeFrame(line, known)
		if err != nil {
			t.Fatal(err)
		}
		in, err := req.instance()
		if err != nil {
			t.Fatal(err)
		}
		if err := known.validate(context.Background(), in, &req, 64); err != nil {
			t.Fatal(err)
		}
		if req.instKnown || req.instSpan {
			t.Fatalf("a %d-byte instance was fingerprinted", len(line))
		}
	}
	if n := known.len(); n != 0 {
		t.Errorf("table holds %d instances", n)
	}
}

// TestKnownInstanceConcurrentResubmission has several TCP connections
// submit the same bytes at once, so that one recorded instance is
// shared by concurrent handlers and scheduler workers (run under
// -race). Every answer must be the same.
func TestKnownInstanceConcurrentResubmission(t *testing.T) {
	const conns, rounds = 4, 8
	srv, addr, _ := startTestServer(t, ServerConfig{Service: service.Config{Workers: 2}, Probes: 64})
	t.Cleanup(srv.Close)
	in := moldable.Random(moldable.GenConfig{N: 64, M: 512, Seed: 11})
	ctx := context.Background()
	answers := make([][]string, conns)
	var wg sync.WaitGroup
	for c := range conns {
		wc, err := Dial(ctx, addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { wc.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				id, err := wc.Submit(ctx, in, core.Options{Eps: 0.25}, true)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := wc.Result(ctx, id, true, in)
				if err != nil || res.Err != nil {
					t.Errorf("result: %v, %v", err, res.Err)
					return
				}
				answers[c] = append(answers[c], fmt.Sprint(res.Report.Makespan, res.Schedule.Placements))
			}
		}()
	}
	wg.Wait()
	want := answers[0][0]
	for c := range answers {
		for i, a := range answers[c] {
			if a != want {
				t.Errorf("connection %d, submit %d answered %s, want %s", c, i, a, want)
			}
		}
	}
	if n := srv.known.len(); n != 1 {
		t.Errorf("server table holds %d instances, want 1", n)
	}
}

// instances is a backend that remembers every distinct instance value
// the serve loop submits.
type instances struct {
	*service.Scheduler
	mu   sync.Mutex
	seen map[*moldable.Instance]int
}

func (b *instances) SubmitCtx(ctx context.Context, in *moldable.Instance, opt core.Options, starts bool) *service.Ticket {
	b.mu.Lock()
	b.seen[in]++
	b.mu.Unlock()
	return b.Scheduler.SubmitCtx(ctx, in, opt, starts)
}

// TestKnownInstanceDecodedOnce submits one 256-job instance 50 times
// on one connection: it is decoded once, every submission after the
// first schedules that one instance, and each of those is counted.
func TestKnownInstanceDecodedOnce(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	reused := obs.WireInstancesReused.Value()
	svc := service.New(service.Config{Workers: 2})
	t.Cleanup(svc.Close)
	b := &instances{Scheduler: svc, seen: map[*moldable.Instance]int{}}
	c := pipeSession(t, b, ServeConfig{Probes: 64})
	line := submitLine(t, `{"op":"submit","tag":"k","algo":"auto"`, moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 5}))
	for range 50 {
		if r := c.roundTrip(line); r.Code != "" {
			t.Fatalf("submit: %s: %s", r.Code, r.Error)
		}
	}
	if len(b.seen) != 1 {
		t.Errorf("50 submissions of one instance decoded %d times", len(b.seen))
	}
	if n := obs.WireInstancesReused.Value() - reused; n != 49 {
		t.Errorf("wire_instances_reused_total rose by %d, want 49", n)
	}
}

// BenchmarkSubmitFrame times what the serve loop spends on a 256-job
// submit frame before the scheduler sees it — decode plus validation —
// on first sight and on a known instance.
func BenchmarkSubmitFrame(b *testing.B) {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 3})
	line := []byte(submitLine(b, `{"op":"submit","tag":"q1","algo":"auto","eps":0.25`, in))
	ctx := context.Background()
	submit := func(b *testing.B, known *knownInstances) {
		req, err := decodeFrame(line, known)
		if err != nil {
			b.Fatal(err)
		}
		got, err := req.instance()
		if err != nil {
			b.Fatal(err)
		}
		if err := known.validate(ctx, got, &req, 64); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("first", func(b *testing.B) {
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for b.Loop() {
			submit(b, newKnownInstances())
		}
	})
	b.Run("known", func(b *testing.B) {
		known := newKnownInstances()
		submit(b, known)
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		for b.Loop() {
			submit(b, known)
		}
	})
}
