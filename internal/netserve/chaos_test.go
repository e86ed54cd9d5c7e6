package netserve

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/online"
	"repro/internal/scherr"
	"repro/internal/service"
)

// Chaos harness: drop a connection or close the server while clients
// are mid-request and pin what they observe. The contract under fire is
// threefold — every request completes within its deadline, ok or with
// a TYPED terminal error (ErrUnavailable; never a hang, never an
// untyped string), other connections keep serving unaffected, and the
// whole exercise leaks no goroutines (checked under -race in CI).

// TestDialErrorsTyped: a dial that fails is typed like every other
// transport failure. A closed port gives ErrUnavailable; a context that
// already ended gives scherr.ErrCanceled, still matching its cause.
func TestDialErrorsTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens there now

	if _, err := Dial(context.Background(), addr); !errors.Is(err, ErrUnavailable) {
		t.Errorf("dial to a closed port: %v, want ErrUnavailable", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dial(ctx, addr); !errors.Is(err, scherr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("dial under a canceled context: %v, want ErrCanceled matching context.Canceled", err)
	}
}

// startTestServer boots a Server on a loopback listener and returns it
// with its address. The server is closed by the caller.
func startTestServer(t *testing.T, cfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	srv := NewServer(context.Background(), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), errc
}

// heavyInstance builds a distinct instance of jobs Amdahl jobs that
// takes milliseconds to schedule; salt varies the canonical hash, so a
// burst of them never hits the result cache.
func heavyInstance(jobs, salt int) *moldable.Instance {
	in := &moldable.Instance{M: 256}
	for j := 0; j < jobs; j++ {
		in.Jobs = append(in.Jobs, moldable.Amdahl{Seq: 1 + float64(salt), Par: 90 + float64(j%7)})
	}
	return in
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers); a stuck handler or
// collector shows up as a count that never comes back.
func checkNoGoroutineLeak(t *testing.T, base int) {
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

// submitBurst submits n heavy instances concurrently, so every ack
// comes back while the single worker has barely started: the queue is
// deep by construction, not by sleep-based luck.
func submitBurst(ctx context.Context, t *testing.T, wc *WireClient, n, salt int) ([]uint64, []*moldable.Instance) {
	t.Helper()
	ids := make([]uint64, n)
	ins := make([]*moldable.Instance, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range ins {
		ins[i] = heavyInstance(400, salt+i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], errs[i] = wc.Submit(ctx, ins[i], core.Options{Eps: 0.1}, false)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	return ids, ins
}

// collectBurst waits for every ticket from its own goroutine. cut runs
// once, as soon as the first result is in, while the rest are still
// queued. Each ticket must then resolve ok or with the typed
// ErrUnavailable; at least one must be unavailable.
func collectBurst(ctx context.Context, t *testing.T, wc *WireClient, ids []uint64, ins []*moldable.Instance, cut func()) {
	t.Helper()
	outcomes := make(chan error, len(ids))
	for i := range ids {
		go func(i int) {
			res, err := wc.Result(ctx, ids[i], true, ins[i])
			if err == nil {
				err = res.Err
			}
			outcomes <- err
		}(i)
	}
	var ok, unavailable int
	for range ids {
		err := <-outcomes
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrUnavailable):
			unavailable++
		default:
			t.Errorf("ticket resolved with %v, want ok or ErrUnavailable", err)
		}
		if ok+unavailable == 1 {
			cut()
		}
	}
	if unavailable == 0 {
		t.Fatalf("all %d tickets outran the cut (ok=%d); the burst must be heavier", len(ids), ok)
	}
	t.Logf("burst of %d: %d completed before the cut, %d typed unavailable", len(ids), ok, unavailable)
}

// TestChaosServerClosesMidStream pins what wire clients see when their
// connection or the whole server goes away mid-stream:
//
//   - a connection dropped abruptly while its tickets are queued fails
//     each one typed (ErrUnavailable), and a second connection's open
//     online session arrives and drains as if nothing happened;
//   - Server.Close with tickets queued and a session open resolves
//     every ticket ok or ErrUnavailable, and the session's next op
//     fails ErrUnavailable — no call hangs past its deadline;
//   - no goroutine outlives the server.
func TestChaosServerClosesMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, addr, errc := startTestServer(t, ServerConfig{
		Service: service.Config{Workers: 1}, // one worker: a burst stays queued
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	job := func(i int) online.Arrival {
		return online.Arrival{T: moldable.Time(i), Job: moldable.Amdahl{Seq: 2, Par: 90 + float64(i)}}
	}

	b, err := Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial b: %v", err)
	}
	sess, err := b.OpenOnline(ctx, online.Config{M: 64, Eps: 0.5})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := b.Arrive(ctx, sess, job(0)); err != nil {
		t.Fatalf("arrive: %v", err)
	}

	// Connection a queues a burst and drops abruptly mid-stream.
	a, err := Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial a: %v", err)
	}
	ids, ins := submitBurst(ctx, t, a, 16, 0)
	collectBurst(ctx, t, a, ids, ins, func() { a.Close() })

	// b's session never noticed.
	if _, err := b.Arrive(ctx, sess, job(1)); err != nil {
		t.Fatalf("arrive after a dropped: %v", err)
	}
	if _, met, err := b.Drain(ctx, sess); err != nil || met.Finished != 2 {
		t.Fatalf("drain after a dropped: finished %d, err %v; want 2 jobs, no error", met.Finished, err)
	}

	// Now the server closes under b's burst and a second open session.
	sess, err = b.OpenOnline(ctx, online.Config{M: 64, Eps: 0.5})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if _, err := b.Arrive(ctx, sess, job(0)); err != nil {
		t.Fatalf("arrive: %v", err)
	}
	ids, ins = submitBurst(ctx, t, b, 16, 100)
	collectBurst(ctx, t, b, ids, ins, srv.Close)
	if _, err := b.Arrive(ctx, sess, job(1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("arrive after Close: %v, want ErrUnavailable", err)
	}
	if _, _, err := b.Drain(ctx, sess); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("drain after Close: %v, want ErrUnavailable", err)
	}

	b.Close()
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
	checkNoGoroutineLeak(t, base)
}
