package repro_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/online"
	"repro/internal/service"
)

// Remote-transport tests: the public Client driving a moldschedd-style
// netserve.Server over a real TCP socket via WithDial, including the
// chaos cases a remote caller must survive — its connection dropping,
// or the server closing, while a ScheduleStream is in flight.

// startRemoteServer boots a server on a loopback listener.
func startRemoteServer(t *testing.T, workers int) (*netserve.Server, string) {
	t.Helper()
	srv := netserve.NewServer(context.Background(), netserve.ServerConfig{
		Service: service.Config{Workers: workers},
		Probes:  64,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-errc; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// heavyInstance builds a distinct instance that takes milliseconds to
// schedule; salt varies the canonical hash, so a burst of them never
// hits the result cache.
func heavyInstance(salt int) *moldable.Instance {
	in := &moldable.Instance{M: 256}
	for j := 0; j < 400; j++ {
		in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: 1 + float64(salt), Par: 90 + float64(j%7)})
	}
	return in
}

func waitNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteSchedule pins the WithDial round trip end to end: the
// public Schedule call yields a full schedule and report computed by
// the remote server, indistinguishable (but for transport) from local.
func TestRemoteSchedule(t *testing.T) {
	_, addr := startRemoteServer(t, 2)
	c := repro.New(repro.WithDial(addr), repro.WithTenant("t1"))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	in := &moldable.Instance{M: 64, Jobs: []moldable.Job{
		moldable.Amdahl{Seq: 2, Par: 98},
		moldable.Power{W: 50, Alpha: 0.8},
	}}
	s, rep, err := c.Schedule(ctx, in, repro.WithEps(0.25))
	if err != nil {
		t.Fatalf("remote schedule: %v", err)
	}
	if rep == nil || !(rep.Makespan > 0) || !(rep.Ratio > 0) {
		t.Fatalf("remote report: %+v", rep)
	}
	if s == nil || len(s.Placements) != in.N() {
		t.Fatalf("remote schedule placements: %+v", s)
	}
	for _, p := range s.Placements {
		if p.Procs < 1 || p.Duration <= 0 {
			t.Fatalf("placement %+v not populated from the wire", p)
		}
	}
	// The server's counters moved, visible through the same client.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("remote stats: %v", err)
	}
	if st.Submitted < 1 || st.Completed < 1 {
		t.Fatalf("remote stats after one submission: %+v", st)
	}
}

// TestRemoteRunOnline replays an arrival stream through a remote
// session: same event contract as the local path, finishing every job.
func TestRemoteRunOnline(t *testing.T) {
	_, addr := startRemoteServer(t, 2)
	c := repro.New(repro.WithDial(addr))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	arrivals := func(yield func(repro.Arrival) bool) {
		for i := 0; i < 3; i++ {
			if !yield(repro.Arrival{T: moldable.Time(i), Job: moldable.Amdahl{Seq: 2, Par: 40 + float64(i)}}) {
				return
			}
		}
	}
	seq, err := c.RunOnline(ctx, arrivals, repro.WithMachines(64), repro.WithEps(0.5))
	if err != nil {
		t.Fatalf("remote online: %v", err)
	}
	kinds := map[int]int{}
	prev := -1
	for i, e := range seq {
		if i != prev+1 {
			t.Fatalf("event indices not sequential: %d after %d", i, prev)
		}
		prev = i
		if e.Kind == repro.EvError {
			t.Fatalf("remote online event error: %v", e.Err)
		}
		kinds[int(e.Kind)]++
	}
	if kinds[int(repro.EvArrive)] != 3 || kinds[int(repro.EvFinish)] != 3 {
		t.Fatalf("remote online events: %v", kinds)
	}
}

// cutProxy relays TCP connections to an upstream address until cut,
// which resets every relayed connection at once: a network failure,
// as the client sees it.
type cutProxy struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn //sched:guardedby mu
	done  bool       //sched:guardedby mu
}

func startCutProxy(t *testing.T, upstream string) *cutProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &cutProxy{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			u, err := net.Dial("tcp", upstream)
			if err != nil {
				c.Close()
				continue
			}
			p.relay(c, u)
		}
	}()
	return p
}

// relay pumps bytes both ways between c and u until either closes.
func (p *cutProxy) relay(c, u net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		c.Close()
		u.Close()
		return
	}
	p.conns = append(p.conns, c, u)
	p.wg.Add(2)
	go func() { defer p.wg.Done(); io.Copy(u, c); u.Close() }()
	go func() { defer p.wg.Done(); io.Copy(c, u); c.Close() }()
}

// cut resets every relayed connection and stops the proxy.
func (p *cutProxy) cut() {
	p.ln.Close()
	p.mu.Lock()
	p.done = true
	for _, c := range p.conns {
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetLinger(0) // RST, not FIN: the peer sees a reset
		}
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// streamBurst streams n heavy instances through c and runs cut once,
// at the first yield, while the rest are still queued behind the
// server's single worker. Every item must yield, ok or with the typed
// ErrUnavailable, and at least one must be unavailable.
func streamBurst(ctx context.Context, t *testing.T, c *repro.Client, n, salt int, cut func()) {
	t.Helper()
	ins := make([]*moldable.Instance, n)
	for i := range ins {
		ins[i] = heavyInstance(salt + i)
	}
	var ok, unavailable int
	for _, r := range c.ScheduleStream(ctx, ins, repro.WithEps(0.1)) {
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, repro.ErrUnavailable):
			unavailable++
		default:
			t.Errorf("stream item failed with %v, want ok or ErrUnavailable", r.Err)
		}
		if ok+unavailable == 1 {
			cut()
		}
	}
	if ok+unavailable != n {
		t.Fatalf("stream yielded %d typed results, want %d", ok+unavailable, n)
	}
	if unavailable == 0 {
		t.Fatalf("all %d items outran the cut (ok=%d); the burst must be heavier", n, ok)
	}
	t.Logf("stream of %d: %d completed before the cut, %d typed unavailable", n, ok, unavailable)
}

// gatedOnline starts a RunOnline session on c that admits one arrival,
// then waits for gate before the second. It returns once the first
// arrival is in; the channel delivers every event once the run ends.
func gatedOnline(ctx context.Context, t *testing.T, c *repro.Client, gate <-chan struct{}) <-chan []repro.OnlineEvent {
	t.Helper()
	admitted := make(chan struct{})
	arrivals := func(yield func(repro.Arrival) bool) {
		if !yield(repro.Arrival{T: 0, Job: moldable.Amdahl{Seq: 2, Par: 40}}) {
			return
		}
		close(admitted)
		<-gate
		yield(repro.Arrival{T: 1, Job: moldable.Amdahl{Seq: 2, Par: 41}})
	}
	seq, err := c.RunOnline(ctx, arrivals, repro.WithMachines(64), repro.WithEps(0.5))
	if err != nil {
		t.Fatalf("remote online: %v", err)
	}
	done := make(chan []repro.OnlineEvent, 1)
	go func() {
		var evs []repro.OnlineEvent
		for _, e := range seq {
			evs = append(evs, e)
		}
		done <- evs
	}()
	select {
	case <-admitted:
	case evs := <-done:
		t.Fatalf("online run ended before its first arrival was in: %+v", evs)
	}
	return done
}

// TestRemoteServerClosesMidStream is the chaos test at the public-API
// level. A client whose connection drops mid-stream, and a client
// whose server closes mid-stream, each get exactly one Result per
// instance, ok or ErrUnavailable, and never hang. An online session on
// another connection survives the drop and drains normally; one open
// when the server closes ends in a single EvError matching
// ErrUnavailable. Nothing leaks.
func TestRemoteServerClosesMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, addr := startRemoteServer(t, 1) // one worker: a burst queues
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	b := repro.New(repro.WithDial(addr))

	// a reaches the server through a proxy that resets its connection
	// mid-stream, while b's session is open.
	gate := make(chan struct{})
	survivor := gatedOnline(ctx, t, b, gate)
	p := startCutProxy(t, addr)
	a := repro.New(repro.WithDial(p.ln.Addr().String()))
	streamBurst(ctx, t, a, 16, 0, p.cut)
	a.Close()
	close(gate)
	kinds := map[online.EventKind]int{}
	for _, e := range <-survivor {
		if e.Kind == repro.EvError {
			t.Fatalf("session on the surviving connection failed: %v", e.Err)
		}
		kinds[e.Kind]++
	}
	if kinds[repro.EvArrive] != 2 || kinds[repro.EvFinish] != 2 {
		t.Fatalf("surviving session events: %v, want 2 arrivals and 2 finishes", kinds)
	}

	// Then the server closes under b's stream and a second session.
	gate = make(chan struct{})
	orphan := gatedOnline(ctx, t, b, gate)
	streamBurst(ctx, t, b, 16, 100, srv.Close)
	close(gate)
	evs := <-orphan
	var errs int
	for _, e := range evs {
		if e.Kind == repro.EvError {
			errs++
		}
	}
	last := evs[len(evs)-1]
	if errs != 1 || last.Kind != repro.EvError || !errors.Is(last.Err, repro.ErrUnavailable) {
		t.Fatalf("session open at Close: %d error events, last %+v; want one EvError matching ErrUnavailable, last", errs, last)
	}

	b.Close()
	waitNoGoroutineLeak(t, base)
}

// TestRemoteDialFailure pins the failure shape of an unreachable
// server: the error surfaces on the call, typed by the transport.
func TestRemoteDialFailure(t *testing.T) {
	c := repro.New(repro.WithDial("127.0.0.1:1")) // nothing listens on port 1
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	in := &moldable.Instance{M: 8, Jobs: []moldable.Job{moldable.PerfectSpeedup{W: 8}}}
	if _, _, err := c.Schedule(ctx, in); err == nil {
		t.Fatal("schedule against a dead address succeeded")
	}
}

// TestRemoteClientStartsNoWorkers: a WithDial client schedules on the
// server, so New starts no local worker goroutines (the pool options
// then size nothing), and Close works before any call.
func TestRemoteClientStartsNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	c := repro.New(repro.WithDial("127.0.0.1:1"), repro.WithWorkers(8)) // never dialed
	after := runtime.NumGoroutine()
	c.Close()
	if after > before {
		t.Fatalf("New(WithDial) started %d goroutines", after-before)
	}
}
