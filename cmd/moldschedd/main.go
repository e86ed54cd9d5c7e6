// Command moldschedd is the long-running scheduling daemon: a JSON-lines
// front end over internal/service, speaking the wire protocol of
// docs/PROTOCOL.md in two transports.
//
// By default it reads one request object per line from stdin and writes
// one response object per line to stdout, so any process that can speak
// pipes can drive it:
//
//	moldschedd < requests.jsonl
//	mkfifo req && moldschedd < req > resp &
//
// With -listen it instead serves the same protocol over TCP, one
// protocol session per connection, all in front of one scheduler:
//
//	moldschedd -listen :7463
//
// Network mode adds admission control (-max-inflight; shed requests get
// the "overloaded" code), per-tenant token-bucket quotas (-quota-rate /
// -quota-burst, keyed by the connection's "hello" tenant), idle
// online-session reaping (-idle-session), and an HTTP side (-http) with
// /healthz, /stats, and the protocol over POST /rpc. A "shutdown"
// request over TCP ends its own connection only; over stdin it exits
// the process. See docs/PROTOCOL.md ("Transport") for the full
// specification and internal/netserve for the implementation shared by
// both transports.
//
// Requests ("op" selects the operation):
//
//	{"op":"submit","tag":"a1","algo":"auto","eps":0.1,"validate":false,
//	 "timeout_ms":250,
//	 "instance":{"m":64,"jobs":[{"type":"amdahl","seq":2,"par":98}]}}
//	{"op":"result","id":1,"wait":true}
//	{"op":"stats"}
//	{"op":"shutdown"}
//
// Responses echo "op" (and "tag"/"id" where relevant):
//
//	{"op":"submit","tag":"a1","id":1}
//	{"op":"result","id":1,"done":true,"cached":false,"algorithm":"linear",
//	 "makespan":12.5,"lowerbound":11.9,"ratio":1.05,"iterations":7,
//	 "elapsed_ms":0.8,"allot":[3,1]}
//	{"op":"stats","submitted":1,"completed":1,...}
//
// submit replies with a ticket id once the instance is validated; the
// work runs on the service's worker pool. timeout_ms > 0 sets a
// per-submission deadline: when it expires before the work finishes,
// the ticket completes with a canceled-error result instead of
// blocking forever. result with wait=true answers when the ticket
// completes. Responses are written as they become ready, so they may
// interleave out of request order — submit replies included
// (validation runs off the read loop); correlate submit replies by tag
// and result replies by id. result consumes the ticket. shutdown
// drains in-flight work and exits.
//
// Online sessions (the event-driven arrivals runtime of
// internal/online; DESIGN.md §7) have four further ops:
//
//	{"op":"open_online","tag":"s1","m":64,"policy":"epoch","algo":"auto","eps":0.1}
//	{"op":"arrive","id":2,"t":0.5,"job":{"type":"amdahl","seq":2,"par":98}}
//	{"op":"trace","id":2}
//	{"op":"drain","id":2}
//
// open_online creates a session owning one runtime and returns its
// ticket; arrive admits one timestamped job (timestamps non-decreasing
// per session) and returns the machine events it caused; trace returns
// the session's full event log so far; drain runs the session to
// completion, returns the remaining events plus realized metrics, and
// releases the ticket. Unlike submit/result, the session ops are
// handled on the read loop in request order — a session is stateful
// and its arrivals are meaningful only in sequence.
//
// Every response carries a "trace_id" echoing the request's (or a
// server-assigned "t-<n>" when the request carried none); a stats
// request with "trace":true additionally returns the process's recent
// scheduling decision traces (docs/OBSERVABILITY.md). -debug-addr
// serves GET /metrics (Prometheus text format) and net/http/pprof on a
// separate address in every mode, pipe mode included; it is off by
// default.
//
// Error responses carry a stable "code" alongside the human-readable
// "error" text, from the typed taxonomy of internal/scherr:
// "not_monotone", "regime", "canceled", "bad_eps", "internal", plus
// the protocol-level "bad_request", "unknown_ticket", "overloaded"
// (admission or quota shed). Clients built on netserve.WireClient
// also report "unavailable" when the connection or server goes away.
// Clients should branch on the code, never the text.
//
// See DESIGN.md §5 for the daemon's place in the serving architecture
// and docs/PROTOCOL.md for the full wire specification.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/netserve"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		workers  = flag.Int("workers", 0, "pool workers (0: GOMAXPROCS)")
		cacheCap = flag.Int("cache", 1024, "result-cache capacity (0: default)")
		noCache  = flag.Bool("no-cache", false, "disable the result cache")
		probes   = flag.Int("probes", 256, "monotonicity probes per submitted job (0: exhaustive)")

		listen      = flag.String("listen", "", "serve the wire protocol on this TCP address (e.g. :7463) instead of stdin/stdout")
		httpAddr    = flag.String("http", "", "serve /healthz, /stats and POST /rpc on this HTTP address")
		maxInflight = flag.Int("max-inflight", 0, "admitted-request budget across all connections (0: unlimited; excess sheds with code \"overloaded\")")
		quotaRate   = flag.Float64("quota-rate", 0, "per-tenant request quota in req/s (0: no quotas)")
		quotaBurst  = flag.Float64("quota-burst", 0, "per-tenant quota burst capacity (0: defaults to quota-rate; at least 1)")
		idleSession = flag.Duration("idle-session", 0, "reap online sessions idle longer than this (0: never)")
		debugAddr   = flag.String("debug-addr", "", "serve GET /metrics (Prometheus text) and /debug/pprof on this HTTP address (off when empty)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("moldschedd: ")

	svcCfg := service.Config{
		Workers:        *workers,
		ResultCacheCap: *cacheCap,
		NoResultCache:  *noCache,
	}
	ctx := context.Background()

	if *listen == "" && *httpAddr == "" {
		// Pipe mode (the default): one in-process service, no admission
		// control — the peer on the other end of the pipe is trusted.
		svc := service.New(svcCfg)
		defer svc.Close()
		if *debugAddr != "" {
			// The debug server lives until process exit; its error lands
			// on a buffered channel nobody needs to drain in pipe mode —
			// a dead debug listener must not stop request serving.
			startDebug(*debugAddr, func() { service.PublishStats(svc.Stats()) }, make(chan error, 1))
		}
		if err := netserve.ServeLines(ctx, svc, os.Stdin, os.Stdout, netserve.ServeConfig{Probes: *probes}); err != nil {
			log.Fatalf("reading stdin: %v", err)
		}
		return
	}

	srv := netserve.NewServer(ctx, netserve.ServerConfig{
		Service: svcCfg,
		Limits: netserve.Limits{
			MaxInflight: *maxInflight,
			QuotaRate:   *quotaRate,
			QuotaBurst:  *quotaBurst,
		},
		Probes:      *probes,
		IdleSession: *idleSession,
	})
	defer srv.Close()

	// All listeners report onto one channel; the first fatal error (or
	// clean stop) takes the daemon down through srv.Close above.
	errc := make(chan error, 3)
	if *debugAddr != "" {
		startDebug(*debugAddr, srv.RefreshObsGauges, errc)
	}
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			log.Fatalf("listen %s: %v", *listen, err)
		}
		log.Printf("serving wire protocol on %s", ln.Addr())
		go func() { errc <- srv.Serve(ln) }()
	}
	if *httpAddr != "" {
		hs := &http.Server{Addr: *httpAddr, Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		log.Printf("serving HTTP on %s", *httpAddr)
		go func() { errc <- hs.ListenAndServe() }()
	}
	if err := <-errc; err != nil {
		log.Fatalf("serving: %v", err)
	}
}

// startDebug serves the observability surface — GET /metrics in
// Prometheus text format plus net/http/pprof — on its own address,
// kept off the protocol and HTTP listeners so profiling endpoints are
// never exposed by default. refresh republishes the scrape-time gauges
// before each /metrics render.
func startDebug(addr string, refresh func(), errc chan<- error) {
	ds := &http.Server{Addr: addr, Handler: obs.DebugHandler(refresh), ReadHeaderTimeout: 10 * time.Second}
	log.Printf("serving debug endpoints (/metrics, /debug/pprof) on %s", addr)
	go func() { errc <- ds.ListenAndServe() }()
}
