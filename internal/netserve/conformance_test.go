package netserve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

// The protocol-conformance suite: one canonical script touching every
// op of docs/PROTOCOL.md — submit/result/stats/shutdown, the online
// quartet open_online/arrive/trace/drain, and every protocol-level
// error shape (malformed JSON, unknown op, unknown tickets, bad algo,
// bad instance, bad eps, non-monotone input, canceled deadlines) — is
// replayed once through the pipe-mode serve loop (exactly what
// `moldschedd < requests.jsonl` runs) and once over a real TCP
// connection to a Server. The two response streams must be
// byte-identical after normalizing ticket ids and elapsed times: the
// socket transport may not change what the protocol says.

// cstep is one lockstep exchange: send the request line (after
// substituting ${name} ticket references), read exactly one response.
// saveID remembers the response's id under a symbolic name for later
// steps.
type cstep struct {
	line   string
	saveID string
}

var conformanceScript = []cstep{
	// Tenant binding acks and echoes.
	{line: `{"op":"hello","tag":"h1","tenant":"acme"}`},
	// A client-supplied trace id echoes verbatim on every transport
	// (playScript asserts the echo; see also the trace_id rows of
	// docs/PROTOCOL.md).
	{line: `{"op":"hello","tag":"h2","tenant":"acme","trace_id":"client-tid-1"}`},
	// Batch happy path: submit, blocking result (with starts), cache hit.
	{line: `{"op":"submit","tag":"a1","algo":"auto","eps":0.25,"schedule":true,"instance":{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"power","w":50,"alpha":0.8}]}}`, saveID: "t1"},
	{line: `{"op":"result","id":${t1},"wait":true}`},
	{line: `{"op":"submit","tag":"a2","algo":"auto","eps":0.25,"instance":{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"power","w":50,"alpha":0.8}]}}`, saveID: "t2"},
	{line: `{"op":"result","id":${t2},"wait":true}`},
	// Every named algorithm answers over the wire.
	{line: `{"op":"submit","tag":"a3","algo":"conv","eps":0.25,"instance":{"m":256,"jobs":[{"type":"amdahl","seq":2,"par":98},{"type":"power","w":50,"alpha":0.8}]}}`, saveID: "t3"},
	{line: `{"op":"result","id":${t3},"wait":true}`},
	// result on a consumed ticket, then on a never-issued one.
	{line: `{"op":"result","id":${t3},"wait":true}`},
	{line: `{"op":"result","id":999999,"wait":false,"trace_id":"client-tid-2"}`},
	// Error shapes: unparsable line, unknown op, bad algo, bad instance
	// JSON, structurally invalid instance, bad eps, non-monotone job,
	// and a deadline that expires before validation (canceled).
	{line: `{not json at all`},
	{line: `{"op":"frobnicate","tag":"e1"}`},
	{line: `{"op":"submit","tag":"e2","algo":"simplex","instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`},
	{line: `{"op":"submit","tag":"e3","instance":{"m":4,"jobs":[{"type":"warp","w":8}]}}`},
	{line: `{"op":"submit","tag":"e4","instance":{"m":0,"jobs":[{"type":"perfect","w":8}]}}`},
	{line: `{"op":"submit","tag":"e5","eps":7.5,"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`, saveID: "teps"},
	{line: `{"op":"result","id":${teps},"wait":true}`},
	{line: `{"op":"submit","tag":"e6","instance":{"m":4,"jobs":[{"type":"table","times":[2,5]}]}}`},
	{line: `{"op":"submit","tag":"e7","timeout_ms":1e-7,"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}}`},
	// Online sessions: open, arrive, trace, drain, and the misuse
	// shapes (bad policy, bad m, missing/bad/non-monotone job,
	// out-of-order timestamps, every op on unknown tickets, arrive
	// after drain).
	{line: `{"op":"open_online","tag":"s1","m":64,"policy":"epoch","eps":0.5}`, saveID: "sess"},
	{line: `{"op":"arrive","id":${sess},"t":0,"job":{"type":"amdahl","seq":2,"par":98}}`},
	{line: `{"op":"arrive","id":${sess},"t":1,"job":{"type":"power","w":50,"alpha":0.8}}`},
	{line: `{"op":"trace","id":${sess}}`},
	{line: `{"op":"arrive","id":${sess},"t":0.5,"job":{"type":"perfect","w":8}}`},
	{line: `{"op":"arrive","id":${sess}}`},
	{line: `{"op":"arrive","id":${sess},"t":2,"job":{"type":"warp","w":8}}`},
	{line: `{"op":"arrive","id":${sess},"t":2,"job":{"type":"table","times":[2,5]}}`},
	{line: `{"op":"drain","id":${sess}}`},
	{line: `{"op":"arrive","id":${sess},"t":3,"job":{"type":"perfect","w":8}}`},
	{line: `{"op":"open_online","tag":"s2","policy":"wishful","m":8}`},
	{line: `{"op":"open_online","tag":"s3","m":0}`},
	{line: `{"op":"open_online","tag":"s4","m":8,"eps":9}`},
	{line: `{"op":"trace","id":424242}`},
	{line: `{"op":"drain","id":424242}`},
	// Frame-decoding edges: JSON that encoding/json accepts but is not
	// canonical (case-folded and unknown keys, escapes, repeated keys,
	// null, keys out of order), and the type, range and trailing-byte
	// errors it reports. The answers and error texts must not depend on
	// which decoder read the line.
	{line: `{"OP":"hello","Tag":"h3","TENANT":"acme"}`},
	{line: `{"op":"hello","tag":"h4","tenant":"acme","extra":[1,{"x":null}],"tag":"h5"}`},
	{line: `{"op":"hello","tag":"hé\n","tenant":"ü"}`},
	{line: `  {"op":"submit","tag":"c1","schedule":true,"instance":{"jobs":[{"par":98,"type":"amdahl","seq":2},{"alpha":0.8,"w":50,"type":"power"}],"m":64}}	`, saveID: "tc1"},
	{line: `{"op":"result","id":${tc1},"wait":true}`},
	{line: `{"op":"submit","tag":"c2","eps":0.25,"instance":{"m":4,"jobs":[{"type":"perfect","w":8,"Max":2}]}}`, saveID: "tc2"},
	{line: `{"op":"result","id":${tc2},"wait":true}`},
	{line: `{"op":"submit","tag":"c3","instance":{"m":4,"jobs":[{"type":"amdahl","seq":1,"par":9,"max":2}],"jobs":[{"type":"perfect","w":16}]}}`, saveID: "tc3"},
	{line: `{"op":"result","id":${tc3},"wait":true}`},
	{line: `{"op":"submit","tag":"c4","instance":{"m":4.0,"jobs":[{"type":"perfect","w":8}]}}`},
	{line: `{"op":"submit","tag":"c5","instance":{"m":4,"jobs":[{"type":"perfect","w":1e400}]}}`},
	{line: `{"op":"submit","tag":"c6","instance":null}`},
	{line: `{"op":"submit","tag":"c7","instance":[]}`},
	{line: `{"op":"submit","tag":"c8"}`},
	{line: `{"op":"submit","tag":"c9","instance":{"m":4,"jobs":[{"type":"table","times":[]}]}}`},
	{line: `{"op":"submit","tag":"c10","instance":{"m":4,"jobs":[{"type":"piecewise","procs":[1,4],"times":[8]}]}}`},
	{line: `{"op":"submit","tag":"c11","instance":{"m":4,"jobs":[{"type":"perfect","w":8},{"type":"warp"},{"type":"perfect","w":"x"}]}}`},
	{line: `{"op":"submit","tag":"c12","instance":{"m":8,"jobs":[{"type":"piecewise","procs":[1,4],"times":[8,2.5],"factor":1.5,"max":6},{"type":"comm","w":5e-324,"c":-0},{"type":"sequential","t":1e-7}]}}`, saveID: "tc12"},
	{line: `{"op":"result","id":${tc12},"wait":true}`},
	{line: `{"op":"submit","tag":"c13","eps":0.25,"validate":true,"instance":{"m":4,"jobs":[{"type":"perfect","w":8}]}} trailing`},
	{line: `{"op":"submit","tag":"c14","eps":1E-1,"validate":true,"instance":{"m":-0,"jobs":[]}}`},
	{line: `{"op":"result","id":-1}`},
	{line: `{"op":"result","id":1.5}`},
	{line: `{"op":"result","id":18446744073709551616}`},
	{line: `{"op":"result","id":7,"wait":"yes"}`},
	{line: `{"op":"stats","tag":"st0","trace":null}`},
	{line: `{"op":"arrive","id":424242,"t":0,"job":null}`},
	{line: `{"op":"arrive","id":424242,"t":0,"job":7}`},
	{line: `{"op":"arrive","id":424242,"t":0,"job":{"type":"perfect","w":8},"job":{}}`},
	{line: `{"op":"arrive","id":424242,"t":"0","job":{"type":"perfect","w":8}}`},
	{line: `{"op":"arrive","id":424242,"t":1e-7,"job":{"type":"perfect","w":8}}`},
	// Aggregated counters after identical work must agree.
	{line: `{"op":"stats","tag":"st"}`},
	{line: `{"op":"shutdown","tag":"bye"}`},
}

// lockConn drives one transport in lockstep.
type lockConn struct {
	t *testing.T
	w io.Writer
	r *bufio.Reader
}

// roundTrip writes one request line and reads its response frame,
// which must be the line encoding/json writes for the decoded value:
// the server's frame appenders may not change a byte of it.
func (c *lockConn) roundTrip(line string) Response {
	c.t.Helper()
	if _, err := io.WriteString(c.w, line+"\n"); err != nil {
		c.t.Fatalf("writing request %q: %v", line, err)
	}
	frame, err := c.r.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("reading response to %q: %v", line, err)
	}
	var r Response
	if err := json.Unmarshal(frame, &r); err != nil {
		c.t.Fatalf("decoding response to %q: %v", line, err)
	}
	if want, err := json.Marshal(r); err != nil || string(want)+"\n" != string(frame) {
		c.t.Errorf("response to %q is not encoding/json's frame:\n  wrote: %s  json:  %s", line, frame, want)
	}
	return r
}

// playScript runs the conformance script over one transport and
// returns the raw responses in order.
func playScript(t *testing.T, c *lockConn) []Response {
	t.Helper()
	ids := map[string]uint64{}
	var out []Response
	for _, st := range conformanceScript {
		line := st.line
		for name, id := range ids {
			line = strings.ReplaceAll(line, "${"+name+"}", fmt.Sprint(id))
		}
		if strings.Contains(line, "${") {
			t.Fatalf("unresolved ticket reference in %q", line)
		}
		r := c.roundTrip(line)
		// The trace_id echo guarantee (ISSUE 9): every frame — error
		// frames for unparsable lines included — carries a trace id, and
		// a client-supplied one echoes verbatim.
		if r.TraceID == "" {
			t.Errorf("request %q: response carries no trace_id: %+v", line, r)
		}
		var req Request
		if json.Unmarshal([]byte(line), &req) == nil && req.TraceID != "" && r.TraceID != req.TraceID {
			t.Errorf("request %q: trace_id %q not echoed (got %q)", line, req.TraceID, r.TraceID)
		}
		if st.saveID != "" {
			ids[st.saveID] = r.ID
		}
		out = append(out, r)
	}
	return out
}

// normalize canonicalizes the transport-dependent parts of a response
// stream: ticket ids and server-assigned trace ids ("t-<n>", drawn
// from a process-global counter) are remapped to first-seen ordinals,
// and elapsed times zeroed. Client-supplied trace ids pass through —
// the echo must be verbatim. Everything else — op echo, tags, codes,
// error texts, allotments, start times, events, metrics, aggregated
// stats — must already be identical.
func normalize(rs []Response) []Response {
	idmap := map[uint64]uint64{}
	remap := func(id uint64) uint64 {
		if id == 0 {
			return 0
		}
		if v, ok := idmap[id]; ok {
			return v
		}
		v := uint64(len(idmap) + 1)
		idmap[id] = v
		return v
	}
	tidmap := map[string]string{}
	remapTID := func(tid string) string {
		if !strings.HasPrefix(tid, "t-") {
			return tid
		}
		if v, ok := tidmap[tid]; ok {
			return v
		}
		v := fmt.Sprintf("t-%d", len(tidmap)+1)
		tidmap[tid] = v
		return v
	}
	out := make([]Response, len(rs))
	for i, r := range rs {
		r.ID = remap(r.ID)
		r.TraceID = remapTID(r.TraceID)
		r.ElapsedMS = 0
		out[i] = r
	}
	return out
}

// TestConformance pins that the TCP transport is byte-equivalent to
// pipe mode: the same request script yields the same response bytes
// (modulo ticket ids and elapsed times) whether it flows through
// ServeLines on a pipe or over a socket to a Server.
func TestConformance(t *testing.T) {
	pipe := normalize(playPipe(t))
	tcp := normalize(playTCP(t))

	if len(pipe) != len(tcp) {
		t.Fatalf("response count differs: pipe %d, tcp %d", len(pipe), len(tcp))
	}
	for i := range pipe {
		pj, err := json.Marshal(pipe[i])
		if err != nil {
			t.Fatalf("marshal pipe response %d: %v", i, err)
		}
		tj, err := json.Marshal(tcp[i])
		if err != nil {
			t.Fatalf("marshal tcp response %d: %v", i, err)
		}
		if string(pj) != string(tj) {
			t.Errorf("request %q:\n  pipe: %s\n  tcp:  %s", conformanceScript[i].line, pj, tj)
		}
	}
}

// playPipe runs the script through ServeLines on in-process pipes —
// the exact code path of `moldschedd` without -listen.
func playPipe(t *testing.T) []Response {
	t.Helper()
	svc := service.New(service.Config{Workers: 2})
	defer svc.Close()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		errc <- ServeLines(context.Background(), svc, inR, outW, ServeConfig{Probes: 64})
	}()
	rs := playScript(t, &lockConn{t: t, w: inW, r: bufio.NewReader(outR)})
	if err := <-errc; err != nil { // script ends in shutdown
		t.Fatalf("pipe serve loop: %v", err)
	}
	inW.Close()
	outW.Close()
	return rs
}

// playTCP runs the script over a real socket to a Server.
func playTCP(t *testing.T) []Response {
	t.Helper()
	srv := NewServer(context.Background(), ServerConfig{
		Service: service.Config{Workers: 2},
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
	conn.SetDeadline(time.Now().Add(2 * time.Minute))
	rs := playScript(t, &lockConn{t: t, w: conn, r: bufio.NewReader(conn)})
	conn.Close()
	srv.Close()
	if err := <-errc; err != nil {
		t.Fatalf("tcp serve: %v", err)
	}
	return rs
}

// conformanceGolden is the normalized response stream of the script,
// one JSON frame per line, as the reflection-only codec produced it.
// The one-pass frame scanner must not change a byte of it: every
// answer, every error code and every "bad request: …" text included.
const conformanceGolden = "testdata/conformance.golden"

// streamBytes renders a normalized response stream one frame a line.
func streamBytes(t *testing.T, rs []Response) []byte {
	t.Helper()
	var b []byte
	for i, r := range rs {
		j, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal response %d: %v", i, err)
		}
		b = append(append(b, j...), '\n')
	}
	return b
}

// TestConformanceGolden pins both transports' normalized response
// streams to the committed golden, byte for byte.
func TestConformanceGolden(t *testing.T) {
	want, err := os.ReadFile(conformanceGolden)
	if err != nil {
		t.Fatal(err)
	}
	for name, play := range map[string]func(*testing.T) []Response{
		"pipe": playPipe,
		"tcp":  playTCP,
	} {
		got := streamBytes(t, normalize(play(t)))
		if string(got) == string(want) {
			continue
		}
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Errorf("%s: frame %d differs from %s:\n  got:  %s\n  want: %s", name, i, conformanceGolden, gl[i], wl[i])
			}
		}
		if len(gl) != len(wl) {
			t.Errorf("%s: %d frames, golden has %d", name, len(gl)-1, len(wl)-1)
		}
	}
}
