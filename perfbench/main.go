// Command perfbench is the repository's end-to-end benchmark. It starts
// an in-process netserve.Server on loopback TCP and drives it with a
// closed-loop load from the same process: at most two connections
// (GOMAXPROCS = nproc), each sending its next request only after the
// previous answer arrived and passed the answer check. Every run makes
// a fixed number of requests, generated from --seed.
//
//	perfbench --workload hit|miss|bigm|online --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced on fresh servers (half the
// requests each), times every layer from outside on a sample of the
// workload's requests (the ladder), writes the spans to --out-dir, and
// prints the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A
// failed answer or workload-property check exits nonzero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 3

// deadline bounds a whole run, below the 180 s a run may take.
const deadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: hit, miss, bigm or online")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Int("seconds", 15, "run length on a 2-core reference machine; sizes the fixed request count")
	traceMode := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	outDir := fs.String("out-dir", ".bench_build", "directory for the span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ok := specByName(*name)
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload hit|miss|bigm|online, --seconds ≥ 1, --trace 0|1\n")
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	conns := min(2, nproc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchdog := time.AfterFunc(deadline, func() {
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", deadline)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d conns=%d go=%s\n",
		s.name, *seed, *seconds, *traceMode, nproc, conns, runtime.Version())
	var out output
	var err error
	count := s.timedCount(*seconds, conns)
	if *traceMode == 1 {
		out, err = traced(ctx, stdout, s, *seed, count, conns, *outDir)
	} else {
		out, err = plain(ctx, stdout, s, *seed, count, conns)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !out.Correct {
		return 1
	}
	return 0
}

// setUp is the timed set-up of a run: generate and pre-encode the
// request set, start the server, dial, and run the warm pass, which
// must succeed in full.
func setUp(ctx context.Context, s spec, seed uint64, count, conns int) (*requestSet, *env, error) {
	set, err := buildSet(s, seed, count, conns)
	if err != nil {
		return nil, nil, err
	}
	e, err := startEnv(ctx, conns)
	if err != nil {
		return nil, nil, err
	}
	if err := warmUp(ctx, e, s, set.warm); err != nil {
		e.close()
		return nil, nil, err
	}
	return set, e, nil
}

// warmUp runs the warm pass, which fills caches, scratch and lazy
// state; every request of it must succeed.
func warmUp(ctx context.Context, e *env, s spec, items []item) error {
	if w := drive(ctx, e, s, items, nil); w.ok != w.attempted {
		return fmt.Errorf("warm pass: %d of %d requests failed: %s", w.attempted-w.ok, w.attempted, strings.Join(w.errs, "; "))
	}
	return nil
}

// plain is an untraced run of count timed requests (sessions for
// online): setupReps set-ups (the last one is kept), then the timed
// closed-loop pass.
func plain(ctx context.Context, stdout io.Writer, s spec, seed uint64, count, conns int) (output, error) {
	var setups []float64
	var set *requestSet
	var e *env
	for range setupReps {
		if e != nil {
			e.close()
		}
		runtime.GC() // every set-up, and the timed pass, start from a collected heap
		t0 := time.Now()
		var err error
		if set, e, err = setUp(ctx, s, seed, count, conns); err != nil {
			return output{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(stdout, "setups_s: %.4f\n", setups)
	defer e.close()
	runtime.GC()
	p := drive(ctx, e, s, set.timed, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return output{}, err
	}
	correct := report(stdout, s, set, p, true)
	return output{
		Correct: correct, Attempted: p.attempted, Failed: p.attempted - p.ok,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"throughput_rps": {p.rps, "1/s"},
			"lat_p50_ms":     {windowedQuantile(p.lat, 0.50), "ms"},
			"lat_p99_ms":     {windowedQuantile(p.lat, 0.99), "ms"},
			"cpu_ms_per_req": {p.cpuMS, "ms"},
			"peak_rss_mb":    {rss, "MB"},
			"ok_rate":        {float64(p.ok) / float64(p.attempted), "ratio"},
			"ratio_mean":     {p.ratioMean, "ratio"},
			"flow_mean":      {p.flowMean, "time"},
		},
	}, nil
}

// report prints the workload-property check and failures of a pass and
// reports whether every answer passed and the workload is what it
// claims to be: hit all result-cache hits, miss and bigm none.
func report(w io.Writer, s spec, set *requestSet, p pass, needP99 bool) bool {
	ok := p.ok == p.attempted
	st := p.stats
	resultShare, memoShare := ratio(st.ResultHits, st.Submitted), ratio(st.OracleHits, st.OracleHits+st.OracleMisses)
	nw := windows(len(p.lat))
	size := len(p.lat) / nw // the smallest window
	beyond := size - int(math.Ceil(0.99*float64(size)))
	fmt.Fprintf(w, "property: attempted=%d succeeded=%d result_hit_share=%.4f memo_hit_share=%.4f "+
		"latency_samples=%d windows=%d beyond_p99_per_window=%d answers_cached=%d stream_sha256=%s stream_bytes=%d\n",
		p.attempted, p.ok, resultShare, memoShare, len(p.lat), nw, beyond, p.cached, set.digest, set.bytes)
	for _, e := range p.errs {
		fmt.Fprintf(w, "failure: %s\n", e)
	}
	fail := func(format string, a ...any) {
		fmt.Fprintf(w, "property failure: "+format+"\n", a...)
		ok = false
	}
	switch {
	case s.online:
		if st.OnlineArrivals != int64(p.attempted) {
			fail("server admitted %d arrivals, %d were sent", st.OnlineArrivals, p.attempted)
		}
	case s.pool > 0:
		if st.Submitted != int64(p.attempted) || st.ResultHits != st.Submitted || p.cached != p.attempted {
			fail("%s must be all result-cache hits: %d of %d submissions hit, %d answers cached",
				s.name, st.ResultHits, st.Submitted, p.cached)
		}
	default:
		if st.ResultHits != 0 || p.cached != 0 {
			fail("%s must see no result-cache hit: %d hits, %d answers cached", s.name, st.ResultHits, p.cached)
		}
	}
	if needP99 && beyond < 10 {
		fail("only %d latency samples beyond a window's p99; need 10", beyond)
	}
	return ok
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traced is a traced run over a third-size request set: a discarded
// pass that grows the heap as the workload does, the ladder, then an
// untraced pass (the runtime and cache metrics) and a traced one, each
// pass on a fresh server; the last two give the tracing overhead.
// Spans are written to outDir.
func traced(ctx context.Context, stdout io.Writer, s spec, seed uint64, count, conns int, outDir string) (output, error) {
	count = (count/3 + conns - 1) / conns * conns
	set, err := buildSet(s, seed, count, conns)
	if err != nil {
		return output{}, err
	}
	tr := newTracer()
	var passes [3]pass
	var l ladderOut
	for i := range passes {
		if i == 1 {
			if l, err = runLadder(ctx, s, set, seed, tr); err != nil {
				return output{}, err
			}
		}
		var pt *tracer
		if i == 2 {
			pt = tr
		}
		e, err := startEnv(ctx, conns)
		if err != nil {
			return output{}, err
		}
		if err := warmUp(ctx, e, s, set.warm); err != nil {
			e.close()
			return output{}, err
		}
		runtime.GC()
		passes[i] = drive(ctx, e, s, set.timed, pt)
		e.close()
	}
	a, b := passes[1], passes[2]
	correct := report(stdout, s, set, a, false)
	correct = report(stdout, s, set, b, false) && correct

	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return output{}, err
	}
	if err := tr.writeJSONL(path); err != nil {
		return output{}, err
	}
	fmt.Fprintf(stdout, "spans: %s\n", path)

	m := perLayer(s, tr, l, a, b)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "layer: %-28s %14.3f %s\n", k, m[k].Value, m[k].Unit)
	}
	checkLadderOrder(stdout, s, m)
	return output{Correct: correct, Attempted: a.attempted + b.attempted,
		Failed: a.attempted - a.ok + b.attempted - b.ok, Metrics: m}, nil
}

// perLayer derives every per-layer metric from the spans and counts.
func perLayer(s spec, tr *tracer, l ladderOut, a, b pass) map[string]metric {
	us := tr.medianUS
	coreUS, ltUS, probes := us("core.schedule"), us("lt.estimate"), median(l.probes)
	tcpUS, arriveUS := us("netserve.tcp"), us("online.arrive")
	unloaded := us("netserve.tcp_miss") // the same kind of request, unloaded
	switch {
	case s.online:
		unloaded = us("netserve.arrive")
	case s.pool > 0:
		unloaded = tcpUS
	}
	perReq := func(p pass) float64 { return float64(p.cpu.Nanoseconds()) / 1e6 / float64(p.attempted) }
	st := a.stats
	return map[string]metric{
		"moldable.encode_us":       {us("moldable.encode"), "us"},
		"moldable.decode_us":       {us("moldable.decode"), "us"},
		"moldable.validate_us":     {us("moldable.validate"), "us"},
		"moldable.oracle_calls":    {median(l.oracleCalls), "count"},
		"service.hash_us":          {us("service.hash"), "us"},
		"service.hit_us":           {us("service.hit"), "us"},
		"service.miss_us":          {us("service.miss"), "us"},
		"service.miss_self_us":     {us("service.miss") - coreUS, "us"},
		"service.result_hit_ratio": {ratio(st.ResultHits, st.Submitted), "ratio"},
		"service.memo_hit_ratio":   {ratio(st.OracleHits, st.OracleHits+st.OracleMisses), "ratio"},
		"parallel.load_wait_us":    {windowedQuantile(a.lat, 0.5)*1e3 - unloaded, "us"},
		"core.schedule_us":         {coreUS, "us"},
		"lt.estimate_us":           {ltUS, "us"},
		"dual.probes":              {probes, "count"},
		"dual.probe_us":            {(coreUS - ltUS) / math.Max(probes, 1), "us"},
		"schedule.validate_us":     {us("schedule.validate"), "us"},
		"netserve.pipe_us":         {us("netserve.pipe"), "us"},
		"netserve.tcp_us":          {tcpUS, "us"},
		"netserve.tcp_miss_us":     {us("netserve.tcp_miss"), "us"},
		"netserve.self_us":         {us("netserve.pipe") - us("moldable.decode") - us("moldable.validate") - us("service.hit"), "us"},
		"netserve.http_us":         {us("netserve.http"), "us"},
		"netserve.req_bytes":       {l.reqBytes, "bytes"},
		"netserve.resp_bytes":      {l.respBytes, "bytes"},
		"client.remote_us":         {us("client.remote") - tcpUS, "us"},
		"online.arrive_us":         {arriveUS, "us"},
		"online.replan_us":         {us("online.arrive_replan"), "us"},
		"online.replans":           {float64(l.replans), "count"},
		"service.online_arrive_us": {us("service.online_arrive") - arriveUS, "us"},
		"netserve.arrive_us":       {us("netserve.arrive"), "us"},
		"go.alloc_kb_per_req":      {float64(a.rt.allocBytes) / 1024 / float64(a.attempted), "KiB"},
		"go.gc_cpu_share":          {a.rt.gcShare, "ratio"},
		"go.sched_wait_p99_us":     {a.rt.schedWaitP99us, "us"},
		"trace.lat_p50_ratio":      {windowedQuantile(b.lat, 0.5) / windowedQuantile(a.lat, 0.5), "ratio"},
		"trace.cpu_per_req_ratio":  {perReq(b) / perReq(a), "ratio"},
	}
}

// checkLadderOrder prints whether the ladder is ordered as the layers
// nest: tcp ≥ pipe ≥ service hit on hit; service miss ≥ core ≥
// estimator on miss and bigm.
func checkLadderOrder(w io.Writer, s spec, m map[string]metric) {
	chain := []string{"service.miss_us", "core.schedule_us", "lt.estimate_us"}
	if s.pool > 0 {
		chain = []string{"netserve.tcp_us", "netserve.pipe_us", "service.hit_us"}
	} else if s.online {
		return
	}
	verdict := "ordered"
	for i := 1; i < len(chain); i++ {
		if m[chain[i-1]].Value < m[chain[i]].Value {
			verdict = "NOT ordered"
		}
	}
	fmt.Fprintf(w, "ladder: %s is %s\n", strings.Join(chain, " ≥ "), verdict)
}
