package netserve

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/service"
)

// The stats trace dimension (ISSUE 9): a "stats" request with
// "trace":true returns the sampled decision traces, and a decision
// made on behalf of a trace_id-tagged submit carries that id — over
// the pipe transport and over TCP alike.

const traceWireInstance = `{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"power","w":50,"alpha":0.8}]}`

// driveTraceScript submits under an explicit trace id, waits for the
// result, and asks stats for the traces; it returns the stats
// response.
func driveTraceScript(t *testing.T, c *lockConn, tid string) Response {
	t.Helper()
	sub := c.roundTrip(fmt.Sprintf(`{"op":"submit","tag":"tw","algo":"linear","eps":0.25,"trace_id":%q,"instance":%s}`, tid, traceWireInstance))
	if sub.Error != "" {
		t.Fatalf("submit failed: %+v", sub)
	}
	if res := c.roundTrip(fmt.Sprintf(`{"op":"result","id":%d,"wait":true}`, sub.ID)); res.Error != "" {
		t.Fatalf("result failed: %+v", res)
	}
	st := c.roundTrip(`{"op":"stats","tag":"tw","trace":true}`)
	if st.Error != "" {
		t.Fatalf("stats failed: %+v", st)
	}
	return st
}

// checkTraces asserts the stats response carries sampled traces and
// that the submit's trace id is among them with a sane payload.
func checkTraces(t *testing.T, st Response, tid string) {
	t.Helper()
	if len(st.Traces) == 0 {
		t.Fatal("stats with trace:true returned no traces")
	}
	for _, tr := range st.Traces {
		if tr.TraceID != tid {
			continue
		}
		if tr.Source == "" || tr.Algo != "linear" || tr.N != 2 || tr.M != 64 {
			t.Errorf("trace payload for %q looks wrong: %+v", tid, tr)
		}
		return
	}
	t.Errorf("no trace carries the submit's trace_id %q: %+v", tid, st.Traces)
}

func TestStatsTraceDimensionPipe(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- ServeLines(context.Background(), svc, inR, outW, ServeConfig{Probes: 64})
	}()
	c := &lockConn{t: t, w: inW, r: bufio.NewReader(outR)}
	st := driveTraceScript(t, c, "trace-dim-pipe")
	if r := c.roundTrip(`{"op":"shutdown"}`); r.Op != "shutdown" {
		t.Fatalf("shutdown ack: %+v", r)
	}
	if err := <-errc; err != nil {
		t.Fatalf("pipe serve loop: %v", err)
	}
	inW.Close()
	outW.Close()
	checkTraces(t, st, "trace-dim-pipe")
}

func TestStatsTraceDimensionTCP(t *testing.T) {
	srv := NewServer(context.Background(), ServerConfig{
		Service: service.Config{Workers: 1},
		Probes:  64,
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	c := &lockConn{t: t, w: conn, r: bufio.NewReader(conn)}
	st := driveTraceScript(t, c, "trace-dim-tcp")
	conn.Close()
	srv.Close()
	if err := <-errc; err != nil {
		t.Fatalf("tcp serve: %v", err)
	}
	checkTraces(t, st, "trace-dim-tcp")
}
