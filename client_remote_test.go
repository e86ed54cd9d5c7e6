package repro_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
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
	if _, _, err := c.Schedule(ctx, in); !errors.Is(err, repro.ErrUnavailable) {
		t.Fatalf("schedule against a dead address: %v, want ErrUnavailable", err)
	}
}

// holdProxy relays TCP connections to an upstream address, but holds
// each accepted connection unrelayed until release is closed, so a
// client's tenant hello stays unanswered until then. accepted gets one
// value per accepted connection; closed counts the connections whose
// client side has closed.
type holdProxy struct {
	addr     string
	release  chan struct{}
	accepted chan struct{}
	closed   atomic.Int32
}

func startHoldProxy(t *testing.T, upstream string) *holdProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &holdProxy{addr: ln.Addr().String(), release: make(chan struct{}), accepted: make(chan struct{}, 64)}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepted <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				<-p.release
				u, err := net.Dial("tcp", upstream)
				if err != nil {
					return
				}
				defer u.Close()
				go func() { io.Copy(c, u); c.Close() }()
				io.Copy(u, c)
				p.closed.Add(1)
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		select {
		case <-p.release:
		default:
			close(p.release)
		}
		wg.Wait()
	})
	return p
}

// waitAccepted waits until n more connections have been accepted.
func (p *holdProxy) waitAccepted(t *testing.T, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for i := range n {
		select {
		case <-p.accepted:
		case <-timeout:
			t.Fatalf("proxy accepted %d connections, want %d", i, n)
		}
	}
}

// waitNoMoreAccepted fails if another connection is accepted within d.
func (p *holdProxy) waitNoMoreAccepted(t *testing.T, d time.Duration) {
	t.Helper()
	select {
	case <-p.accepted:
		t.Fatalf("proxy accepted a second connection while the first dial was in flight")
	case <-time.After(d):
	}
}

// waitClosed waits until n proxied connections have been closed by the
// client side.
func (p *holdProxy) waitClosed(t *testing.T, n int32) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.closed.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("proxy saw %d connections closed, want %d", p.closed.Load(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteDialHonorsEachDeadline: call A's first dial stalls in its
// tenant hello, which the server never answers. Call B, with a 100 ms
// deadline, must not queue behind A's dial: it fails with ErrCanceled
// on its own deadline.
func TestRemoteDialHonorsEachDeadline(t *testing.T) {
	_, addr := startRemoteServer(t, 1)
	p := startHoldProxy(t, addr)
	c := repro.New(repro.WithDial(p.addr), repro.WithTenant("t"))
	defer c.Close()

	ctxA, cancelA := context.WithCancel(context.Background())
	doneA := make(chan error, 1)
	go func() { _, err := c.Stats(ctxA); doneA <- err }()
	p.waitAccepted(t, 1)
	defer func() { cancelA(); <-doneA }()

	ctxB, cancelB := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancelB()
	doneB := make(chan error, 1)
	go func() { _, err := c.Stats(ctxB); doneB <- err }()
	select {
	case err := <-doneB:
		if !errors.Is(err, repro.ErrCanceled) {
			t.Fatalf("call B: %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		cancelA()
		t.Fatalf("call B still waiting 2 s past its 100 ms deadline, behind call A's dial (then: %v)", <-doneB)
	}
}

// TestRemoteDialConcurrentFirstCalls: concurrent first calls share
// one dial. While the first call's hello is held, no other call opens
// a connection; every call then succeeds on the one connection.
func TestRemoteDialConcurrentFirstCalls(t *testing.T) {
	_, addr := startRemoteServer(t, 1)
	p := startHoldProxy(t, addr)
	c := repro.New(repro.WithDial(p.addr), repro.WithTenant("t"))
	defer c.Close() // on failure too: the proxy's cleanup waits for the client side
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 8
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Stats(ctx); err != nil {
				t.Errorf("stats: %v", err)
			}
		}()
	}
	p.waitAccepted(t, 1)
	p.waitNoMoreAccepted(t, 100*time.Millisecond)
	close(p.release)
	wg.Wait()
	if _, err := c.Stats(ctx); err != nil {
		t.Fatalf("stats on the kept connection: %v", err)
	}
	if len(p.accepted) != 0 || p.closed.Load() != 0 {
		t.Fatalf("%d more connections accepted, %d closed; want one connection, kept", len(p.accepted), p.closed.Load())
	}
	c.Close()
	p.waitClosed(t, 1)
}

// TestRemoteDialStreamFirstCall: a ScheduleStream that is the first
// call on a fresh client fans out one call per instance, and all of
// them share one dial.
func TestRemoteDialStreamFirstCall(t *testing.T) {
	_, addr := startRemoteServer(t, 1)
	p := startHoldProxy(t, addr)
	c := repro.New(repro.WithDial(p.addr), repro.WithTenant("t"))
	defer c.Close() // on failure too: the proxy's cleanup waits for the client side
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	const n = 16
	ins := make([]*moldable.Instance, n)
	for i := range ins {
		ins[i] = &moldable.Instance{M: 8, Jobs: []moldable.Job{moldable.PerfectSpeedup{W: float64(8 + i)}}}
	}
	done := make(chan int, 1)
	go func() {
		ok := 0
		for _, r := range c.ScheduleStream(ctx, ins) {
			if r.Err != nil {
				t.Errorf("stream item: %v", r.Err)
				continue
			}
			ok++
		}
		done <- ok
	}()
	p.waitAccepted(t, 1)
	p.waitNoMoreAccepted(t, 100*time.Millisecond)
	close(p.release)
	if ok := <-done; ok != n {
		t.Fatalf("stream yielded %d successes, want %d", ok, n)
	}
	if len(p.accepted) != 0 {
		t.Fatalf("stream opened %d more connections, want one in all", len(p.accepted))
	}
}

// TestRemoteDialCloseDuringFirstDial: Close returns while a first dial
// waits for its hello. When the hello is answered, the dial closes its
// connection and the call fails with ErrUnavailable; nothing leaks.
func TestRemoteDialCloseDuringFirstDial(t *testing.T) {
	_, addr := startRemoteServer(t, 1)
	p := startHoldProxy(t, addr)
	base := runtime.NumGoroutine()
	c := repro.New(repro.WithDial(p.addr), repro.WithTenant("t"))
	defer c.Close() // on failure too: the proxy's cleanup waits for the client side
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	done := make(chan error, 1)
	go func() { _, err := c.Stats(ctx); done <- err }()
	p.waitAccepted(t, 1)
	c.Close()
	close(p.release)
	if err := <-done; !errors.Is(err, repro.ErrUnavailable) {
		t.Fatalf("dial finished after Close: %v, want ErrUnavailable", err)
	}
	p.waitClosed(t, 1)
	waitNoGoroutineLeak(t, base)
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

// TestNotMonotoneTyped sends an instance whose one job's time rises
// from p = 1 to p = 2 through Schedule, ScheduleStream and RunOnline,
// on a local client and on a WithDial client. Every path rejects it
// with ErrNotMonotone: the local client validates with its probe
// budget before scheduling, as the server does before admitting.
func TestNotMonotoneTyped(t *testing.T) {
	_, addr := startRemoteServer(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	bad := moldable.Table{T: []moldable.Time{1, 5, 0.1, 0.1}}
	in := &moldable.Instance{M: 4, Jobs: []moldable.Job{bad}}
	for _, tc := range []struct {
		name string
		opts []repro.Option
	}{
		{"local", nil},
		{"remote", []repro.Option{repro.WithDial(addr)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := repro.New(tc.opts...)
			defer c.Close()
			if _, _, err := c.Schedule(ctx, in); !errors.Is(err, repro.ErrNotMonotone) {
				t.Errorf("Schedule: %v, want ErrNotMonotone", err)
			}
			for i, r := range c.ScheduleStream(ctx, []*moldable.Instance{in}) {
				if !errors.Is(r.Err, repro.ErrNotMonotone) {
					t.Errorf("ScheduleStream item %d: %v, want ErrNotMonotone", i, r.Err)
				}
			}
			arrivals := func(yield func(repro.Arrival) bool) { yield(repro.Arrival{T: 0, Job: bad}) }
			seq, err := c.RunOnline(ctx, arrivals, repro.WithMachines(4))
			if err != nil {
				t.Fatalf("RunOnline: %v", err)
			}
			var last repro.OnlineEvent
			for _, e := range seq {
				last = e
			}
			if last.Kind != repro.EvError || !errors.Is(last.Err, repro.ErrNotMonotone) {
				t.Errorf("RunOnline ended with %v (%v), want EvError matching ErrNotMonotone", last.Kind, last.Err)
			}
		})
	}
}
