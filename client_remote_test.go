package repro_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro"
	"repro/internal/moldable"
	"repro/internal/netserve"
	"repro/internal/service"
)

// Remote-transport tests: the public Client driving a moldschedd-style
// netserve.Server over a real TCP socket via WithDial, including the
// chaos case the serving layer must survive — a backend shard dying
// while a ScheduleStream is in flight.

// startRemoteServer boots a sharded server on a loopback listener.
func startRemoteServer(t *testing.T, shards, workers int) (*netserve.Server, string) {
	t.Helper()
	srv := netserve.NewServer(context.Background(), netserve.ServerConfig{
		Shards:  shards,
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

// remoteInstanceFor fabricates distinct heavyweight instances until one
// hashes to the wanted shard.
func remoteInstanceFor(t *testing.T, srv *netserve.Server, want, jobs, salt int) *moldable.Instance {
	t.Helper()
	for i := 0; i < 10000; i++ {
		in := &moldable.Instance{M: 256}
		for j := 0; j < jobs; j++ {
			in.Jobs = append(in.Jobs, moldable.Amdahl{
				Seq: 1 + float64(salt), Par: 90 + float64(i) + float64(j%7),
			})
		}
		if srv.Router().ShardOf(in) == want {
			return in
		}
	}
	t.Fatal("could not fabricate an instance for the wanted shard")
	return nil
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
// the remote fleet, indistinguishable (but for transport) from local.
func TestRemoteSchedule(t *testing.T) {
	_, addr := startRemoteServer(t, 2, 2)
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

// TestRemoteScheduleStreamShardKilled is the chaos satellite at the
// public-API level: a shard dies while a ScheduleStream is mid-flight.
// The stream must still yield exactly one Result per instance — each
// either successful or a typed ErrUnavailable, never a hang or an
// untyped failure — and the client must shut down without leaking
// goroutines.
func TestRemoteScheduleStreamShardKilled(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, addr := startRemoteServer(t, 3, 1) // one worker per shard: the burst queues
	c := repro.New(repro.WithDial(addr))

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const victim = 0
	const burst = 32
	ins := make([]*moldable.Instance, burst)
	for i := range ins {
		ins[i] = remoteInstanceFor(t, srv, victim, 400, i)
	}

	var ok, unavailable, yields int
	killed := false
	for _, r := range c.ScheduleStream(ctx, ins, repro.WithEps(0.1)) {
		yields++
		if !killed {
			// First completion: the other 31 are still queued behind the
			// victim's single worker. Kill it now — mid-stream by
			// construction.
			srv.Router().Kill(victim)
			killed = true
		}
		switch {
		case r.Err == nil:
			ok++
		case errors.Is(r.Err, repro.ErrUnavailable):
			unavailable++
		default:
			t.Fatalf("stream result: error is not typed unavailable: %v", r.Err)
		}
	}
	if yields != burst {
		t.Fatalf("stream yielded %d results, want %d", yields, burst)
	}
	if unavailable == 0 {
		t.Fatalf("all %d results outran the kill (ok=%d); the burst must be heavier", burst, ok)
	}
	t.Logf("stream of %d: %d completed, %d typed unavailable", burst, ok, unavailable)

	// Survivors keep serving through the same client.
	for _, shard := range []int{1, 2} {
		in := remoteInstanceFor(t, srv, shard, 2, 1000+shard)
		if _, _, err := c.Schedule(ctx, in, repro.WithEps(0.25)); err != nil {
			t.Fatalf("post-kill schedule on shard %d: %v", shard, err)
		}
	}

	c.Close()
	srv.Close()
	waitNoGoroutineLeak(t, base)
}

// TestRemoteRunOnline replays an arrival stream through a remote
// session: same event contract as the local path, finishing every job.
func TestRemoteRunOnline(t *testing.T) {
	_, addr := startRemoteServer(t, 2, 2)
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

// TestRemoteRunOnlineShardKilled kills the session's shard between two
// arrivals: the stream must terminate with one EvError event carrying a
// typed ErrUnavailable, not hang or die untyped.
func TestRemoteRunOnlineShardKilled(t *testing.T) {
	srv, addr := startRemoteServer(t, 1, 1)
	c := repro.New(repro.WithDial(addr))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	arrivals := func(yield func(repro.Arrival) bool) {
		if !yield(repro.Arrival{T: 0, Job: moldable.Amdahl{Seq: 2, Par: 40}}) {
			return
		}
		srv.Router().Kill(0) // the only shard: the session is orphaned
		yield(repro.Arrival{T: 1, Job: moldable.Amdahl{Seq: 2, Par: 41}})
	}
	seq, err := c.RunOnline(ctx, arrivals, repro.WithMachines(64), repro.WithEps(0.5))
	if err != nil {
		t.Fatalf("remote online: %v", err)
	}
	var last repro.OnlineEvent
	for _, e := range seq {
		last = e
	}
	if last.Kind != repro.EvError {
		t.Fatalf("stream did not terminate in EvError: %+v", last)
	}
	if !errors.Is(last.Err, repro.ErrUnavailable) {
		t.Fatalf("terminal event error: %v, want ErrUnavailable", last.Err)
	}
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
