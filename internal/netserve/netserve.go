// Package netserve is the network front door of the scheduling
// service: it speaks the moldschedd wire protocol (docs/PROTOCOL.md —
// JSON-lines requests and responses) over per-connection sessions, in
// front of one service.Scheduler.
//
// The package has three layers (DESIGN.md §5):
//
//   - the serve loop (ServeLines): one protocol session over any
//     io.Reader/io.Writer pair. cmd/moldschedd's stdin/stdout mode and
//     every TCP connection run this exact code, so the wire behavior of
//     a socket is identical to the pipe daemon's by construction — a
//     property the conformance suite pins from the outside;
//   - the Server: a concurrent TCP listener (one serve loop per
//     connection, sessions released on disconnect) plus an HTTP
//     handler exposing /healthz, /stats, /metrics and the protocol over
//     POST /rpc. Close cancels every session's in-flight work;
//   - the Limiter: admission control (bounded in-flight budget with
//     deadline-based shedding — a request that cannot be admitted
//     before its deadline is shed with the "overloaded" code) and
//     per-tenant token-bucket quotas keyed by the connection-declared
//     tenant id (the "hello" op).
//
// Affinity, caching and ticket numbering live in the scheduler, not
// here: its key-affine pool sends structurally equal instances to the
// same worker, and its one counter numbers batch and online tickets.
//
// WireClient is the matching client side: the same JSON-lines protocol
// spoken from Go, used by repro.Client's WithDial option so the public
// client API can drive a remote daemon.
package netserve

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/online"
	"repro/internal/scherr"
	"repro/internal/service"
)

// Protocol-level error codes, complementing the scherr taxonomy. The
// wirecode analyzer (internal/analysis) keeps these in lock step with
// the protocol-level table of docs/PROTOCOL.md.
const (
	codeBadRequest    = "bad_request"
	codeUnknownTicket = "unknown_ticket"
	codeOverloaded    = "overloaded"
	codeUnavailable   = "unavailable"
)

// Typed errors of the serving layer; match with errors.Is. They map to
// the wire codes above (and back, in WireClient).
var (
	// ErrOverloaded reports a request shed by admission control: the
	// in-flight budget was exhausted for the request's whole deadline,
	// or the tenant's quota bucket was empty. Retry later, ideally with
	// backoff — the work was never started.
	ErrOverloaded = errors.New("server overloaded; request shed before execution")

	// ErrUnavailable reports a request whose connection or server went
	// away before it was answered. Unlike ErrOverloaded this is not
	// load: the work may or may not have run, and only a new
	// connection can ask again.
	ErrUnavailable = errors.New("server unavailable")

	// ErrUnknownTicket is the client-side face of the unknown_ticket
	// wire code: the id was never issued, already collected, or aged
	// out.
	ErrUnknownTicket = errors.New("unknown or already-collected ticket")
)

// Backend is what one protocol session needs from the scheduling
// service. *service.Scheduler implements it; the pipe daemon and the
// Server both serve through one.
type Backend interface {
	// Batch tickets (docs/PROTOCOL.md: submit/result).
	SubmitCtx(ctx context.Context, in *moldable.Instance, opt core.Options) uint64
	Wait(id uint64) (service.Result, bool)
	Poll(id uint64) (res service.Result, done, known bool)
	Done(id uint64) (<-chan struct{}, bool)

	// Online sessions (open_online/arrive/trace/drain).
	OpenOnline(cfg online.Config) (uint64, error)
	OnlineMachine(id uint64) (int, error)
	OnlineArrive(ctx context.Context, id uint64, a online.Arrival) ([]online.Event, error)
	OnlineTrace(id uint64) ([]online.Event, error)
	OnlineDrain(ctx context.Context, id uint64) ([]online.Event, online.Metrics, error)
	// ReleaseOnline abandons an open session without draining it — the
	// cleanup path for disconnected owners (see ServeLines).
	ReleaseOnline(id uint64) bool
	ReapOnlineIdle(maxIdle time.Duration) int

	Stats() service.Stats
}

// wireCode maps an error to its stable wire code ("" for nil):
// serving-layer errors first, then the shared scherr taxonomy.
func wireCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrOverloaded):
		return codeOverloaded
	case errors.Is(err, ErrUnavailable):
		return codeUnavailable
	case errors.Is(err, ErrUnknownTicket), errors.Is(err, service.ErrUnknownSession):
		return codeUnknownTicket
	}
	return scherr.Code(err)
}

// codeToErr is wireCode's inverse, for WireClient: rebuild a typed,
// errors.Is-matchable error from a response's stable code and text.
// Unknown codes (and "internal") yield an opaque error carrying both.
func codeToErr(code, text string) error {
	if text == "" {
		text = code
	}
	base := errors.New(text)
	switch code {
	case "":
		return nil
	case codeOverloaded:
		return &wireErr{sentinel: ErrOverloaded, text: text}
	case codeUnavailable:
		return &wireErr{sentinel: ErrUnavailable, text: text}
	case codeUnknownTicket:
		return &wireErr{sentinel: ErrUnknownTicket, text: text}
	case scherr.CodeNotMonotone:
		return &wireErr{sentinel: scherr.ErrNotMonotone, text: text}
	case scherr.CodeRegime:
		return &wireErr{sentinel: scherr.ErrRegime, text: text}
	case scherr.CodeCanceled:
		return scherr.Canceled(base)
	case scherr.CodeBadEps:
		return &wireErr{sentinel: scherr.ErrBadEps, text: text}
	case codeBadRequest:
		return &wireErr{sentinel: errBadRequest, text: text}
	}
	return base
}

// errBadRequest anchors bad_request responses decoded by WireClient so
// they stay distinguishable from internal faults.
var errBadRequest = errors.New("bad request")

// wireErr is a decoded wire error: its text is the server's, its
// identity (errors.Is) the matching sentinel.
type wireErr struct {
	sentinel error
	text     string
}

func (e *wireErr) Error() string        { return e.text }
func (e *wireErr) Is(target error) bool { return target == e.sentinel }
func (e *wireErr) Unwrap() error        { return e.sentinel }
