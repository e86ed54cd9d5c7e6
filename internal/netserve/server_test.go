package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/online"
	"repro/internal/service"
)

// --- Limiter ---

func TestLimiterAdmission(t *testing.T) {
	l := NewLimiter(Limits{MaxInflight: 2})
	ctx := context.Background()
	if err := l.acquire(ctx, "acme", false); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	if err := l.acquire(ctx, "acme", false); err != nil {
		t.Fatalf("second acquire: %v", err)
	}
	// Budget exhausted: a no-deadline request sheds immediately, typed.
	if err := l.acquire(ctx, "acme", false); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third acquire: %v, want ErrOverloaded", err)
	}
	// Deadline-based shedding: a waiting request sheds when its
	// deadline arrives before capacity does.
	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := l.acquire(short, "acme", true); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("waiting acquire: %v, want ErrOverloaded", err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("waiting acquire shed before its deadline")
	}
	// A released slot readmits.
	l.release("acme")
	if err := l.acquire(ctx, "acme", false); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	// The nil limiter admits everything.
	var nilL *Limiter
	if err := nilL.acquire(ctx, "acme", false); err != nil {
		t.Fatalf("nil limiter: %v", err)
	}
	nilL.release("acme")
	if err := nilL.takeToken("acme"); err != nil {
		t.Fatalf("nil limiter token: %v", err)
	}
}

func TestLimiterQuota(t *testing.T) {
	// Burst 2 at a negligible refill rate: two requests pass, the third
	// sheds; a different tenant draws from its own bucket.
	l := NewLimiter(Limits{QuotaRate: 0.001, QuotaBurst: 2})
	for i := 0; i < 2; i++ {
		if err := l.takeToken("acme"); err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
	}
	if err := l.takeToken("acme"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-quota token: %v, want ErrOverloaded", err)
	}
	if err := l.takeToken("globex"); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// Anonymous connections share the "" bucket rather than bypassing.
	if err := l.takeToken(""); err != nil {
		t.Fatalf("anonymous first: %v", err)
	}
	// A fractional burst still holds one request's token.
	frac := NewLimiter(Limits{QuotaRate: 0.001, QuotaBurst: 0.5})
	if err := frac.takeToken("acme"); err != nil {
		t.Fatalf("burst 0.5, first token: %v", err)
	}
	if err := frac.takeToken("acme"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("burst 0.5, second token: %v, want ErrOverloaded", err)
	}
	// Quotas disabled: unlimited.
	open := NewLimiter(Limits{})
	for i := 0; i < 100; i++ {
		if err := open.takeToken("acme"); err != nil {
			t.Fatalf("unlimited token %d: %v", i, err)
		}
	}
}

// --- Wire-level shedding (deterministic via a stub backend) ---

// stubBackend is a Backend whose tickets complete only when the test
// closes done — the deterministic way to hold admission slots occupied:
// whatever the wire submits, it schedules a heldJob on done instead.
type stubBackend struct {
	*service.Scheduler
	done chan struct{}
}

func (b *stubBackend) SubmitCtx(ctx context.Context, _ *moldable.Instance, opt core.Options, starts bool) *service.Ticket {
	held := &moldable.Instance{M: 8, Jobs: []moldable.Job{heldJob{b.done}}}
	return b.Scheduler.SubmitCtx(ctx, held, opt, starts)
}

// heldJob is a perfect-speedup job whose oracle blocks until release
// closes, holding its worker busy until then.
type heldJob struct{ release <-chan struct{} }

func (j heldJob) Time(p int) moldable.Time {
	<-j.release
	return 8 / moldable.Time(p)
}

func TestServeLinesShedsWhenSaturated(t *testing.T) {
	stub := &stubBackend{Scheduler: service.New(service.Config{Workers: 1}), done: make(chan struct{})}
	release := sync.OnceFunc(func() { close(stub.done) })
	t.Cleanup(func() {
		release()
		stub.Close()
	})
	lim := NewLimiter(Limits{MaxInflight: 1})
	inst := `{"m":8,"jobs":[{"type":"perfect","w":8}]}`

	inR, inW := io.Pipe()
	var out lockedBuffer
	errc := make(chan error, 1)
	go func() {
		errc <- ServeLines(context.Background(), stub, inR, &out, ServeConfig{Probes: 8, Limiter: lim})
	}()
	send := func(line string) {
		t.Helper()
		if _, err := io.WriteString(inW, line+"\n"); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
	}

	// The first submit is acked only after it has claimed the sole
	// admission slot; its ticket never completes until we say so, so the
	// slot stays held.
	send(`{"op":"submit","tag":"first","instance":` + inst + `}`)
	first := awaitResponse(t, &out, func(r Response) bool { return r.Tag == "first" })
	if first.Code != "" || first.ID == 0 {
		t.Fatalf("first submit should have been admitted: %+v", first)
	}
	// The second, having no deadline, must shed immediately with the
	// typed overloaded code.
	send(`{"op":"submit","tag":"shed","instance":` + inst + `}`)
	shed := awaitResponse(t, &out, func(r Response) bool { return r.Tag == "shed" })
	if shed.Code != codeOverloaded {
		t.Fatalf("saturated submit: code %q, want %q (%+v)", shed.Code, codeOverloaded, shed)
	}
	// Completing the held ticket frees the slot — asynchronously, via
	// its submit handler — so retry until the release lands.
	release()
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		tag := "again" + strconv.Itoa(i)
		send(`{"op":"submit","tag":"` + tag + `","instance":` + inst + `}`)
		again := awaitResponse(t, &out, func(r Response) bool { return r.Tag == tag })
		if again.Code == "" {
			break
		}
		if again.Code != codeOverloaded {
			t.Fatalf("submit after release: %+v", again)
		}
		if time.Now().After(deadline) {
			t.Fatal("slot never released after ticket completion")
		}
		time.Sleep(2 * time.Millisecond)
	}
	inW.Close()
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestStartsFollowTheTicket submits with "schedule":true on one session
// and collects the ticket on a second session of the same scheduler:
// the flag travels with the ticket, so the result carries starts
// whichever connection collects it.
func TestStartsFollowTheTicket(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(svc.Close)
	a := pipeSession(t, svc, ServeConfig{Probes: 8})
	b := pipeSession(t, svc, ServeConfig{Probes: 8})
	inst := `{"m":8,"jobs":[{"type":"perfect","w":8},{"type":"perfect","w":4}]}`
	sub := a.roundTrip(`{"op":"submit","tag":"s","schedule":true,"instance":` + inst + `}`)
	if sub.Code != "" || sub.ID == 0 {
		t.Fatalf("submit: %+v", sub)
	}
	r := b.roundTrip(`{"op":"result","id":` + strconv.FormatUint(sub.ID, 10) + `,"wait":true}`)
	if r.Code != "" || len(r.Allot) != 2 || len(r.Starts) != 2 {
		t.Fatalf("result collected on another session: code %q allot %v starts %v", r.Code, r.Allot, r.Starts)
	}
}

func TestServeLinesQuotaByTenant(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	lim := NewLimiter(Limits{QuotaRate: 0.001, QuotaBurst: 2})
	inst := `{"m":8,"jobs":[{"type":"perfect","w":8}]}`
	lines := []string{
		`{"op":"hello","tag":"h","tenant":"acme"}`,
		`{"op":"submit","tag":"q1","instance":` + inst + `}`,
		`{"op":"submit","tag":"q2","instance":` + inst + `}`,
		`{"op":"submit","tag":"q3","instance":` + inst + `}`,
		`{"op":"shutdown","tag":"end"}`,
	}
	var out lockedBuffer
	err := ServeLines(context.Background(), svc, strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, ServeConfig{Probes: 8, Limiter: lim})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	rs := decodeAll(t, out.String())
	if h := findResp(t, rs, "hello ack", func(r Response) bool { return r.Op == "hello" }); h.Tenant != "acme" {
		t.Fatalf("hello ack: %+v", h)
	}
	var admitted, shed int
	for _, r := range rs {
		if r.Op != "submit" {
			continue
		}
		switch r.Code {
		case "":
			admitted++
		case codeOverloaded:
			shed++
		default:
			t.Fatalf("unexpected submit outcome: %+v", r)
		}
	}
	// Tokens are drawn on the read loop in line order: exactly the
	// burst gets in, the overflow sheds.
	if admitted != 2 || shed != 1 {
		t.Fatalf("quota burst 2: admitted %d shed %d, want 2/1", admitted, shed)
	}
}

// TestServeLinesLongLine: the scan buffer starts small but grows on
// demand, so a submit line well past 1 MiB (a table job over 100k
// processors) is read and scheduled like any other.
func TestServeLinesLongLine(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	const m = 100_000
	var inst strings.Builder
	inst.WriteString(`{"m":` + strconv.Itoa(m) + `,"jobs":[{"type":"table","times":[`)
	for k := 1; k <= m; k++ {
		if k > 1 {
			inst.WriteByte(',')
		}
		inst.WriteString(strconv.FormatFloat(1e6/float64(k), 'g', -1, 64)) // constant work
	}
	inst.WriteString(`]}]}`)
	submit := `{"op":"submit","tag":"big","algo":"linear","eps":0.5,"instance":` + inst.String() + `}`
	if len(submit) <= 1<<20 {
		t.Fatalf("submit line is %d bytes, want > 1 MiB", len(submit))
	}
	lines := []string{submit, `{"op":"result","id":1,"wait":true}`, `{"op":"shutdown"}`}
	var out lockedBuffer
	if err := ServeLines(context.Background(), svc, strings.NewReader(strings.Join(lines, "\n")+"\n"), &out, ServeConfig{Probes: 8}); err != nil {
		t.Fatalf("serve: %v", err)
	}
	rs := decodeAll(t, out.String())
	if r := findResp(t, rs, "submit ack", func(r Response) bool { return r.Op == "submit" }); r.Error != "" || r.ID != 1 {
		t.Fatalf("submit: %+v", r)
	}
	if r := findResp(t, rs, "result", func(r Response) bool { return r.Op == "result" }); r.Error != "" || r.Done == nil || !*r.Done || r.Makespan <= 0 {
		t.Fatalf("result: %+v", r)
	}
}

// --- HTTP endpoints ---

func TestServerHTTPEndpoints(t *testing.T) {
	srv := NewServer(context.Background(), ServerConfig{Service: service.Config{Workers: 1}, Probes: 8})
	defer srv.Close()
	h := srv.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := get("/healthz"); rec.Code != http.StatusOK || rec.Body.String() != "ok\n" {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}

	// The protocol rides over POST /rpc too: one session per request.
	rpc := httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(
		`{"op":"submit","tag":"r1","instance":{"m":8,"jobs":[{"type":"perfect","w":8}]}}`+"\n"+
			`{"op":"stats","tag":"r2"}`+"\n"))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, rpc)
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("rpc content type: %q", ct)
	}
	rs := decodeAll(t, rec.Body.String())
	sub := findResp(t, rs, "rpc submit", func(r Response) bool { return r.Op == "submit" && r.Tag == "r1" })
	if sub.Code != "" || sub.ID == 0 {
		t.Fatalf("rpc submit: %+v", sub)
	}
	res, known := srv.svc.Wait(sub.ID)
	if !known || res.Err != nil {
		t.Fatalf("rpc-submitted ticket: known=%v err=%v", known, res.Err)
	}

	// Stats carries the scheduler's counters and nothing else.
	var stats map[string]json.RawMessage
	if rec := get("/stats"); rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	} else if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatalf("stats decode: %v", err)
	}
	var st service.Stats
	if err := json.Unmarshal(stats["stats"], &st); err != nil || len(stats) != 1 || st.Submitted != 1 {
		t.Fatalf("stats payload: %s (%v)", stats, err)
	}

	// GET /metrics serves the obs registry in Prometheus text format
	// with the scrape-time gauges refreshed from the scheduler.
	rec = get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type: %q", ct)
	}
	body := rec.Body.String()
	if n := strings.Count(body, "# TYPE "); n < 15 {
		t.Fatalf("metrics exposes %d families, want ≥ 15:\n%s", n, body)
	}
	for _, want := range []string{"sched_calls_total", "wire_ops_total{op=", "service_pending 0"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body lacks %q", want)
		}
	}
}

// TestServerCloseCancelsRPC pins that Server.Close reaches HTTP
// sessions too: a POST /rpc blocked in "result wait:true" on queued
// work answers "canceled" promptly, rather than running the queue out.
func TestServerCloseCancelsRPC(t *testing.T) {
	srv := NewServer(context.Background(), ServerConfig{Service: service.Config{Workers: 1}, Probes: 8})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	// A queue of slow submits behind one worker; the body waits on the
	// last ticket, which no worker reaches before Close.
	const n = 16
	var body strings.Builder
	for i := 0; i < n; i++ {
		b, err := moldable.AppendInstance(nil, heavyInstance(400, i))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&body, `{"op":"submit","tag":"s%d","eps":0.1,"instance":%s}`+"\n", i, b)
	}
	fmt.Fprintf(&body, `{"op":"result","id":%d,"wait":true}`+"\n", n)

	type reply struct {
		body string
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/rpc", "application/x-ndjson", strings.NewReader(body.String()))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		replies <- reply{string(b), err}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.svc.Stats().Submitted < n {
		if time.Now().After(deadline) {
			t.Fatalf("submits never arrived: %+v", srv.svc.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close()

	select {
	case r := <-replies:
		if r.err != nil {
			t.Fatalf("rpc: %v", r.err)
		}
		res := findResp(t, decodeAll(t, r.body), "result", func(r Response) bool { return r.Op == "result" })
		if res.Code != "canceled" {
			t.Fatalf("result after Close: code %q (%s), want canceled", res.Code, res.Error)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("POST /rpc still running 5 s after Server.Close")
	}
}

// TestServerCloseJoinsRPC pins that Server.Close joins HTTP sessions:
// a POST whose client has sent one submit and then gone quiet without
// ending the body does not hold Close up, and a POST that arrives after
// Close is refused with 503 rather than reaching the stopped scheduler.
func TestServerCloseJoinsRPC(t *testing.T) {
	srv := NewServer(context.Background(), ServerConfig{Service: service.Config{Workers: 1}, Probes: 8})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	posted := make(chan error, 1)
	go func() {
		resp, err := http.Post(hs.URL+"/rpc", "application/x-ndjson", pr)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		posted <- err
	}()
	b, err := moldable.AppendInstance(nil, heavyInstance(50, 0))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(pw, `{"op":"submit","eps":0.5,"instance":%s}`+"\n", b)
	deadline := time.Now().Add(10 * time.Second)
	for srv.svc.Stats().Submitted < 1 {
		if time.Now().After(deadline) {
			t.Fatal("submit never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close still waiting 5 s on a quiet POST /rpc")
	}
	select {
	case <-posted:
	case <-time.After(5 * time.Second):
		t.Fatal("quiet POST /rpc still open 5 s after Server.Close")
	}

	resp, err := http.Post(hs.URL+"/rpc", "application/x-ndjson", strings.NewReader(`{"op":"stats"}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /rpc after Close: status %d, want 503", resp.StatusCode)
	}
}

// --- Disconnect and idle-session cleanup (the leak fix) ---

// TestAbruptDisconnectReleasesOnlineSessions pins the leak fix: a
// client that opens online sessions and vanishes without draining must
// leave online_sessions at zero once the server notices the
// disconnect.
func TestAbruptDisconnectReleasesOnlineSessions(t *testing.T) {
	srv, addr, errc := startTestServer(t, ServerConfig{Service: service.Config{Workers: 1}, Probes: 8})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wc, err := Dial(ctx, addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	for i := 0; i < 4; i++ {
		id, err := wc.OpenOnline(ctx, online.Config{M: 16, Eps: 0.5})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := wc.Arrive(ctx, id, online.Arrival{T: 0, Job: moldable.PerfectSpeedup{W: 4 + float64(i)}}); err != nil {
			t.Fatalf("arrive %d: %v", i, err)
		}
	}
	if got := srv.svc.Stats().OnlineSessions; got != 4 {
		t.Fatalf("before disconnect: %d open sessions, want 4", got)
	}

	wc.Close() // abrupt: no drains, no shutdown

	deadline := time.Now().Add(5 * time.Second)
	for srv.svc.Stats().OnlineSessions != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("online sessions leaked after disconnect: %d still open",
				srv.svc.Stats().OnlineSessions)
		}
		time.Sleep(5 * time.Millisecond)
	}

	srv.Close()
	if err := <-errc; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

// TestIdleSessionReaper pins the backstop for owners that vanish while
// their connection stays up (a wedged peer): sessions idle past the
// horizon are collected, fresh ones are not.
func TestIdleSessionReaper(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	id, err := svc.OpenOnline(online.Config{M: 16, Eps: 0.5})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := svc.OnlineArrive(context.Background(), id, online.Arrival{T: 0, Job: moldable.PerfectSpeedup{W: 8}}); err != nil {
		t.Fatalf("arrive: %v", err)
	}
	// Fresh activity is protected...
	if n := svc.ReapOnlineIdle(time.Hour); n != 0 {
		t.Fatalf("reaped %d fresh sessions", n)
	}
	// ...idle sessions are not.
	time.Sleep(10 * time.Millisecond)
	if n := svc.ReapOnlineIdle(time.Millisecond); n != 1 {
		t.Fatalf("reaped %d idle sessions, want 1", n)
	}
	if st := svc.Stats(); st.OnlineSessions != 0 {
		t.Fatalf("after reap: %d sessions open", st.OnlineSessions)
	}
	// The reaped session is gone, typed.
	if _, err := svc.OnlineTrace(id); !errors.Is(err, service.ErrUnknownSession) {
		t.Fatalf("trace of reaped session: %v", err)
	}
}

// --- helpers ---

// lockedBuffer is a mutex-guarded output sink: ServeLines writes from
// handler goroutines while tests read concurrently.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder //sched:guardedby mu
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// awaitResponse polls the buffer until a response matches pred.
func awaitResponse(t *testing.T, out *lockedBuffer, pred func(Response) bool) Response {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, r := range decodeAll(t, out.String()) {
			if pred(r) {
				return r
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no matching response in %q", out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func decodeAll(t *testing.T, s string) []Response {
	t.Helper()
	var rs []Response
	dec := json.NewDecoder(strings.NewReader(s))
	for dec.More() {
		var r Response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decoding %q: %v", s, err)
		}
		rs = append(rs, r)
	}
	return rs
}

func findResp(t *testing.T, rs []Response, what string, pred func(Response) bool) Response {
	t.Helper()
	for _, r := range rs {
		if pred(r) {
			return r
		}
	}
	t.Fatalf("no %s response in %+v", what, rs)
	return Response{}
}
