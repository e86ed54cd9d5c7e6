package netserve

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// ServerConfig sizes a Server.
type ServerConfig struct {
	// Shards is ignored: the server runs one scheduler.
	//
	// Deprecated: leave it unset.
	Shards int
	// Service configures the scheduler (workers, caches).
	Service service.Config
	// Limits is the admission-control and quota policy, shared by all
	// connections. The zero value admits everything.
	Limits Limits
	// Probes is the monotonicity probe budget per submitted job.
	Probes int
	// IdleSession, when > 0, reaps online sessions idle longer than
	// this (checked at IdleSession/4 granularity, at least every
	// second) — the backstop for owners that vanish without a
	// disconnect (per-connection cleanup already covers clean and
	// abrupt disconnects).
	IdleSession time.Duration
}

// Server is the network front door: a concurrent TCP listener running
// one protocol session per connection against one service.Scheduler,
// plus an HTTP handler for health, stats and the protocol over POST.
// Create with NewServer, attach listeners with Serve (TCP) and Handler
// (HTTP), stop with Close.
type Server struct {
	cfg    ServerConfig
	svc    *service.Scheduler
	lim    *Limiter
	known  *knownInstances
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	lns    []net.Listener        //sched:guardedby mu
	conns  map[net.Conn]struct{} //sched:guardedby mu
	closed bool                  //sched:guardedby mu
}

// NewServer starts the scheduler and the idle-session reaper. ctx
// bounds the server's lifetime: when it ends, every session's
// in-flight work is canceled (Close still must be called).
func NewServer(ctx context.Context, cfg ServerConfig) *Server {
	sctx, cancel := context.WithCancel(ctx)
	s := &Server{
		cfg:    cfg,
		svc:    service.New(cfg.Service),
		lim:    NewLimiter(cfg.Limits),
		known:  newKnownInstances(),
		ctx:    sctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	if cfg.IdleSession > 0 {
		period := cfg.IdleSession / 4
		if period < time.Second {
			period = time.Second
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			t := time.NewTicker(period)
			defer t.Stop()
			for {
				select {
				case <-s.ctx.Done():
					return
				case <-t.C:
					s.svc.ReapOnlineIdle(s.cfg.IdleSession)
				}
			}
		}()
	}
	return s
}

// Router returns the server's scheduler.
//
// Deprecated: the name predates the single-scheduler server; use the
// result only for Stats.
func (s *Server) Router() *service.Scheduler { return s.svc }

// Serve accepts connections on ln until Close (or a fatal listener
// error) and runs one protocol session per connection. A "shutdown"
// request over TCP ends its own connection, never the process — a
// remote client must not be able to take down the server.
func (s *Server) Serve(ln net.Listener) error {
	if !s.addListener(ln) {
		ln.Close()
		return net.ErrClosed
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || s.ctx.Err() != nil {
				return nil // closed by Close; not a fault
			}
			return err
		}
		if !s.track(conn) {
			conn.Close() // accepted as Close ran
			continue
		}
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			cctx, cancel := context.WithCancel(s.ctx)
			defer cancel()
			// Errors here are connection-scoped (peer vanished, bad
			// framing after 256 MiB): the session dies, the server
			// lives. The deferred cleanup in ServeLines has already
			// released the connection's online sessions.
			_ = ServeLines(cctx, s.svc, conn, conn, s.serveConfig())
		}()
	}
}

// serveConfig is the configuration of every session the server runs,
// over TCP or HTTP: one limiter and one table of known instances.
func (s *Server) serveConfig() ServeConfig {
	return ServeConfig{Probes: s.cfg.Probes, Limiter: s.lim, known: s.known}
}

// addListener registers ln for Close; false means the server is
// already closed.
func (s *Server) addListener(ln net.Listener) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.lns = append(s.lns, ln)
	return true
}

// track registers a live connection so Close can unblock its read loop
// and join its session, and counts it in the wire_conns gauge. false
// means Close has already run: the caller closes the connection.
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	obs.WireConns.Inc()
	return true
}

// join registers an HTTP session so Close can join it; false means
// Close has already run.
func (s *Server) join() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.wg.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
	obs.WireConns.Dec()
}

// RefreshObsGauges republishes the scheduler's counters onto the obs
// registry's scrape-time gauges. The /metrics handler calls it per
// scrape; gauges derived from Stats snapshots are refreshed here rather
// than maintained on the hot path.
func (s *Server) RefreshObsGauges() { service.PublishStats(s.svc.Stats()) }

// Handler returns the HTTP side of the server:
//
//	GET /healthz — 200 "ok" while serving
//	GET /stats   — JSON {"stats": the scheduler's counters}
//	GET /metrics — the obs registry in Prometheus text exposition
//	               format (docs/OBSERVABILITY.md); scrape-time gauges
//	               are refreshed from the scheduler first
//	POST /rpc    — the wire protocol over HTTP: the request body is
//	               JSON-lines requests, the response body the
//	               JSON-lines responses (one protocol session per
//	               HTTP request, ended by the request or by Close;
//	               503 once Close has run)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.RefreshObsGauges()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"stats": s.svc.Stats()})
	})
	mux.HandleFunc("POST /rpc", func(w http.ResponseWriter, req *http.Request) {
		// Close joins the session like a TCP connection's, so no
		// submit can reach the scheduler after it has stopped.
		if !s.join() {
			http.Error(w, "server closed", http.StatusServiceUnavailable)
			return
		}
		defer s.wg.Done()
		// The session ends with the request or with the server,
		// whichever comes first, so Close cancels HTTP work too. The
		// read deadline unblocks a body read from a client that went
		// quiet, as closing a TCP connection does; it can fail only on
		// a transport without deadlines, where Close then waits for the
		// client to finish its body.
		ctx, cancel := context.WithCancel(req.Context())
		defer cancel()
		rc := http.NewResponseController(w)
		stop := context.AfterFunc(s.ctx, func() {
			cancel()
			_ = rc.SetReadDeadline(time.Now())
		})
		defer stop()
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = ServeLines(ctx, s.svc, req.Body, w, s.serveConfig())
	})
	return mux
}

// Close stops accepting, closes every connection, cancels in-flight
// work, joins the sessions, and stops the scheduler. Connections close
// before the work is canceled, so a TCP client sees its connection go
// away (ErrUnavailable), never a result canceled by the shutdown.
// Idempotent.
func (s *Server) Close() {
	lns, conns, already := s.beginClose()
	if already {
		return
	}
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close() // unblock blocked Reads
	}
	s.cancel()
	s.wg.Wait()
	s.svc.Close()
}

// beginClose atomically flips the server closed and takes ownership of
// the listener and connection sets; already=true means a prior Close
// won.
func (s *Server) beginClose() (lns []net.Listener, conns []net.Conn, already bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, true
	}
	s.closed = true
	lns = s.lns
	s.lns = nil
	for c := range s.conns {
		conns = append(conns, c)
	}
	return lns, conns, false
}
