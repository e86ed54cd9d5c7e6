package netserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/schedule"
)

// responseSeeds are FuzzDecodeResponse's seeds: every frame of the
// conformance golden (one of each op and error shape the server
// writes), and each way encoding/json is more lenient than the scanner.
func responseSeeds(t testing.TB) []string {
	golden, err := os.ReadFile(conformanceGolden)
	if err != nil {
		t.Fatal(err)
	}
	seeds := strings.Split(strings.TrimSpace(string(golden)), "\n")
	return append(seeds,
		`{"op":"result","id":7,"done":false,"trace_id":"t-9"}`,
		`{"op":"result","id":7,"done":true,"cached":true,"algorithm":"fptas","makespan":1e-7,"lowerbound":5e-324,"ratio":1e21,"iterations":-3,"elapsed_ms":0.012,"allot":[],"starts":[],"trace_id":"t-9"}`,
		`{"op":"drain","id":2,"trace_id":"t-1","events":[{"t":-0,"kind":"finish","job":3,"free":1,"fallback":true}],"mean_wait":1.5,"mean_flow":2,"max_flow":3,"utilization":0.5,"replans":1,"fallbacks":1,"finished":4}`,
		`{"op":"stats","tag":"q1","stats":{"submitted":1},"trace_id":"t-2","traces":[{"at":1,"source":"wire"}]}`,
		`{"op":"result","id":1,"id":2}`,
		`{"OP":"result","Id":1}`,
		`{"op":"result","done":null,"allot":null}`,
		`{"op":"result","allot":[1.5],"starts":[1e400]}`,
		`{"op":"result","id":-0,"iterations":-0}`,
		`{"op":"arrive","events":[{"t":1,"t":2}]}`,
		`{"op":"arrive","events":[{"T":1,"Kind":"start"}]}`,
		`{"op":"hello","tenant":"é","trace_id":"a>b"}`,
		`{"op":"hello","tenant":"é"}`,
		`{"op":"result"} {"op":"result"}`,
		`{"op":"result","unknown":1}`,
		"{\"op\":\"result\"}\r\n\t ",
		`not json`,
	)
}

// FuzzDecodeResponse checks the response scanner against the path it
// replaces, json.Unmarshal into a Response. The scanner may decline.
// When it accepts, encoding/json must accept the line too and decode
// the same value; decodeResponse must equal encoding/json in value and
// error on every line. Nothing decoded may alias the line.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range responseSeeds(f) {
		f.Add([]byte(s))
	}
	view := func(r Response) string {
		done := "<nil>"
		if r.Done != nil {
			done = strconv.FormatBool(*r.Done)
		}
		stats := "<nil>"
		if r.Stats != nil {
			stats = fmt.Sprintf("%#v", *r.Stats)
		}
		r.Done, r.Stats = nil, nil
		return fmt.Sprintf("done %s, stats %s, %#v", done, stats, r)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Response
		werr := json.Unmarshal(line, &want)
		var scanned Response
		accepted := scanned.scan(bytes.Clone(line))
		if accepted && werr != nil {
			t.Fatalf("scanner accepted %q, encoding/json refuses it: %v", line, werr)
		}
		buf := bytes.Clone(line)
		got, err := decodeResponse(buf)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("decodeResponse(%q) error %v, encoding/json %v", line, err, werr)
		}
		if err != nil {
			return
		}
		gv := view(got)
		for i := range buf {
			buf[i] = 'x'
		}
		if again := view(got); again != gv {
			t.Fatalf("decoded response of %q changed when the line was overwritten:\n%s\n%s", line, gv, again)
		}
		if wv := view(want); gv != wv {
			t.Fatalf("decodeResponse(%q) (scanner accepted: %v):\n  got:  %s\n  want: %s", line, accepted, gv, wv)
		}
	})
}

// FuzzEncodeResponse checks the frame appender against the encoder it
// replaces, json.NewEncoder(w).Encode, over responses of every shape
// the appender covers: strings encoding/json escapes, floats from raw
// bits (NaN, ±Inf, −0, the 1e-6 and 1e21 format edges), and schedules
// whose placements come in any order, repeat or miss jobs, or name
// jobs out of range. Where the appender accepts, its bytes must be
// encoding/json's; where it declines, the writer's fallback must write
// the same bytes or latch the same error.
func FuzzEncodeResponse(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e-7, 1e21, 999999999999999900000, math.NaN(), math.Inf(1), math.Inf(-1), 6.8489659563217735}
	for i, s := range []string{"", "result", "t-1", "a<b", "a>b", "a&b", `a"b\c`, "é", "\x00\t", "\u2028", "\x7f", "bad request: invalid character 'n'"} {
		bits := math.Float64bits(floats[i%len(floats)])
		f.Add(s, "linear", uint64(i), uint8(i*37), bits, bits^1, uint64(i)<<62, -i, []byte{0, 1, 0, 1, 3, 2, byte(i), 9, 200})
		f.Add("result", s, uint64(i), uint8(0xf1), bits, bits^1, uint64(i)<<62, -i, []byte{0, 1, 0, 1, 3, 2, byte(i), 9, 200})
	}
	// Placements out of job order: jobs 1, 0, 2, with and without starts.
	f.Add("result", "linear", uint64(3), uint8(0xf0), math.Float64bits(2.5), math.Float64bits(1.5), math.Float64bits(0.5), 5, []byte{3, 1, 0, 2, 5, 1, 4, 2, 3})
	f.Add("result", "linear", uint64(3), uint8(0x70), math.Float64bits(2.5), math.Float64bits(1.5), math.Float64bits(0.5), 5, []byte{3, 1, 0, 2, 5, 1, 4, 2, 3})
	f.Add("drain", "fptas", uint64(6), uint8(0xff), math.Float64bits(2.5), math.Float64bits(1e-7), math.Float64bits(0.5), 3, []byte{0, 34, 0, 1, 0, 0})
	kinds := []string{"arrive", "replan", "start", "finish", "error"}
	f.Fuzz(func(t *testing.T, text, algo string, id uint64, flags uint8, a, b, c uint64, n int, places []byte) {
		fa, fb, fc := math.Float64frombits(a), math.Float64frombits(b), math.Float64frombits(c)
		has := func(bit int) bool { return flags&(1<<bit) != 0 }
		pick := func(bit int, s string) string {
			if has(bit) {
				return s
			}
			return ""
		}
		r := Response{Op: text, Tag: pick(0, text), ID: id, Error: pick(1, text), Code: pick(2, algo), Tenant: pick(3, algo), TraceID: algo}
		if has(4) { // a result frame
			done := has(5)
			r.Done, r.Cached, r.Algorithm = &done, has(6), algo
			r.Makespan, r.LowerBound, r.Ratio, r.ElapsedMS, r.Iterations = fa, fb, fc, fa*fb, n
			r.sched, r.withStarts = &schedule.Schedule{M: 8}, has(7)
			for i := 0; i+2 < len(places); i += 3 {
				r.sched.Placements = append(r.sched.Placements, schedule.Placement{
					Job: int(places[i]) - 2, Procs: int(places[i+1]), Start: fc * float64(places[i+2]),
				})
			}
		} else { // a session frame
			for i := 0; i+2 < len(places); i += 3 {
				p := places[i : i+3]
				r.Events = append(r.Events, WireEvent{
					T: fa * float64(p[0]), Kind: kinds[int(p[1])%len(kinds)], Job: int(p[0]) - 1, Procs: int(p[1]),
					Free: int(p[2]), Pending: int(p[0] ^ p[2]), Algo: pick(int(p[2]%8), algo), Fallback: p[1]&1 != 0,
				})
			}
			r.Makespan, r.MeanWait, r.MeanFlow, r.MaxFlow, r.Util = fa, fb, fc, fa+fb, fb*fc
			r.Replans, r.Fallbacks, r.Finished = n, n/2, -n
		}

		var want bytes.Buffer
		plain := r
		if panicked(plain.fill) {
			var fr respFrame
			if fr.encode(&r) {
				t.Fatalf("appender accepted %+v, whose encoding/json path panics", r)
			}
			return
		}
		werr := json.NewEncoder(&want).Encode(plain)

		var fr respFrame
		if fr.encode(&r) && (werr != nil || string(fr.b) != want.String()) {
			t.Fatalf("appender wrote\n  %s\nencoding/json (error %v)\n  %s", fr.b, werr, want.Bytes())
		}
		var got bytes.Buffer
		w := &writer{w: &got, enc: json.NewEncoder(&got)}
		w.send(r)
		if fmt.Sprint(w.err) != fmt.Sprint(werr) || got.String() != want.String() {
			t.Fatalf("writer wrote (error %v)\n  %s\nencoding/json (error %v)\n  %s", w.err, got.Bytes(), werr, want.Bytes())
		}
	})
}

func panicked(f func()) (p bool) {
	defer func() { p = recover() != nil }()
	f()
	return false
}

// hitResult is a result frame as the hit workload gets it: a cached
// 256-job answer on m = 4096 with the full placement, as sendResult
// builds it.
func hitResult(t testing.TB) Response {
	in := moldable.Random(moldable.GenConfig{N: 256, M: 4096, Seed: 1})
	s, rep, err := core.ScheduleCtx(context.Background(), in, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	done := true
	return Response{
		Op: "result", ID: 123456, Done: &done, Cached: true,
		Algorithm: rep.Algorithm.String(), Makespan: rep.Makespan, LowerBound: rep.LowerBound,
		Ratio: rep.Ratio, Iterations: rep.Iterations, ElapsedMS: 0.125,
		TraceID: "t-987654", sched: s, withStarts: true,
	}
}

// TestResultFrameAllocs pins the hit path's encode budget: once the
// writer's buffer is warm, appending a result frame allocates nothing.
func TestResultFrameAllocs(t *testing.T) {
	r := hitResult(t)
	var f respFrame
	if !f.encode(&r) {
		t.Fatal("the appender declined a hit-shaped result frame")
	}
	if allocs := testing.AllocsPerRun(100, func() { f.encode(&r) }); allocs != 0 {
		t.Errorf("appending a result frame into a warm buffer: %v allocs, want 0", allocs)
	}
	var got Response
	if !got.scan(f.b) {
		t.Error("the scanner declined a hit-shaped result frame")
	}
}

// BenchmarkResultFrame times both ends of one hit-shaped result frame:
// the server's append and WireClient's decode.
func BenchmarkResultFrame(b *testing.B) {
	r := hitResult(b)
	var f respFrame
	if !f.encode(&r) {
		b.Fatal("the appender declined the frame")
	}
	line := bytes.Clone(f.b)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for b.Loop() {
			f.encode(&r)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(line)))
		for b.Loop() {
			if _, err := decodeResponse(line); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestTraceIDFormat pins the server-assigned trace id: "t-" and the
// decimal sequence number, increasing.
func TestTraceIDFormat(t *testing.T) {
	var prev uint64
	for range 3 {
		id := nextTraceID()
		n, err := strconv.ParseUint(strings.TrimPrefix(id, "t-"), 10, 64)
		if err != nil || id != fmt.Sprintf("t-%d", n) {
			t.Fatalf("trace id %q is not t-<n>", id)
		}
		if n <= prev {
			t.Fatalf("trace id %q does not follow t-%d", id, prev)
		}
		prev = n
	}
}

// TestUnreadableResponseFailsWaiters: a response line that neither
// decoder can read breaks the stream. The Submit it would have answered
// fails with ErrUnavailable wrapping the decode error, even with no
// deadline of its own, and the client is closed for later calls.
func TestUnreadableResponseFailsWaiters(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		io.WriteString(conn, "{\"op\":\"submit\",\"tag\":\n")
		// Keep the connection open: only the line may end the wait.
		io.Copy(io.Discard, conn)
	}()
	wc, err := Dial(context.Background(), ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		wc.Close()
		<-served
	}()
	in := &moldable.Instance{M: 4, Jobs: []moldable.Job{moldable.PerfectSpeedup{W: 8}}}
	errc := make(chan error, 1)
	go func() {
		_, err := wc.Submit(context.Background(), in, core.Options{}, false)
		errc <- err
	}()
	select {
	case err := <-errc:
		var syn *json.SyntaxError
		if !errors.Is(err, ErrUnavailable) || !errors.As(err, &syn) {
			t.Fatalf("Submit error %v, want ErrUnavailable wrapping the decode error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Submit still waiting 5 s after an unreadable response line")
	}
	if _, err := wc.Stats(context.Background()); !errors.Is(err, ErrUnavailable) {
		t.Errorf("Stats after the broken stream: %v, want ErrUnavailable", err)
	}
}
