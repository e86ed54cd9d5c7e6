package netserve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/moldable"
	"repro/internal/online"
	"repro/internal/schedule"
	"repro/internal/scherr"
	"repro/internal/service"
)

// WireClient speaks the moldschedd wire protocol over one connection:
// the client side of ServeLines, used by repro.Client's WithDial
// option. Requests are correlated by unique tags (submit, open_online,
// hello, stats) or ticket ids (result, arrive, trace, drain); a reader
// goroutine demultiplexes the interleaved responses, so the client is
// safe for concurrent use — with the protocol's own caveat that ops on
// one online session must stay sequential.
type WireClient struct {
	conn net.Conn

	wmu sync.Mutex // serializes request frames onto conn

	mu      sync.Mutex
	tags    map[string]chan Response //sched:guardedby mu
	ids     map[uint64]chan Response //sched:guardedby mu
	broken  error                    //sched:guardedby mu — terminal transport error
	seq     atomic.Uint64
	readerd chan struct{} // closed when the reader goroutine exits

	enc encodedInstances // this connection's instances, as Submit encoded them
}

// encodedInstances is a WireClient's table from an instance's content
// fingerprint to the bytes moldable.AppendInstance wrote for it, so
// that resubmitting an instance copies its encoding instead of
// formatting every job's numbers again (DESIGN.md §5). The first
// submission records only the fingerprint, the second records the
// bytes, and later ones copy them: a client that never resubmits holds
// no encodings. The fingerprint
// is 128 bits of the canonical job stream (moldable.WriteCanonical)
// under two seeds, and it is computed afresh on every submit. The
// table is content-addressed, not keyed by *Instance: it pins no
// caller's instance, an instance edited between submits fingerprints
// differently and is encoded again, and since the stream compares
// parameters by their bits, +0 and −0 stay apart. Only encodings up to
// maxKnownBytes are kept, and an instance that fails to encode (a NaN,
// an unknown job type) is never recorded, so it fails on every submit.
type encodedInstances struct {
	fpTable[[]byte]
}

// appendInstance appends AppendInstance's encoding of in to dst,
// copying it from the table when its bytes are recorded. Otherwise it
// encodes in and records its fingerprint, or its bytes when the
// fingerprint was already recorded. Two racing submits of an instance
// may record the fingerprint after the bytes; the next submit then
// encodes and records them again.
func (e *encodedInstances) appendInstance(dst []byte, in *moldable.Instance) ([]byte, error) {
	var h0, h1 maphash.Hash
	h0.SetSeed(e.seeds[0])
	h1.SetSeed(e.seeds[1])
	if !moldable.WriteCanonical(in, &h0, &h1) {
		return moldable.AppendInstance(dst, in)
	}
	fp := fingerprint{h0.Sum64(), h1.Sum64()}
	b, seen := e.get(fp)
	if b != nil {
		return append(dst, b...), nil
	}
	start := len(dst)
	dst, err := moldable.AppendInstance(dst, in)
	if err == nil && len(dst)-start <= maxKnownBytes {
		if seen {
			b = bytes.Clone(dst[start:])
		}
		e.put(fp, b)
	}
	return dst, err
}

// Dial connects a WireClient to a moldschedd TCP listener. A dial cut
// short by ctx fails with scherr.Canceled; any other failure wraps
// ErrUnavailable.
func Dial(ctx context.Context, addr string) (*WireClient, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		if ctx.Err() != nil {
			return nil, scherr.Canceled(ctx.Err())
		}
		return nil, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	c := &WireClient{
		conn:    conn,
		tags:    make(map[string]chan Response),
		ids:     make(map[uint64]chan Response),
		readerd: make(chan struct{}),
		enc:     encodedInstances{newFPTable[[]byte]()},
	}
	go func() {
		defer close(c.readerd)
		c.readLoop()
	}()
	return c, nil
}

// Close tears the connection down; in-flight calls fail promptly.
func (c *WireClient) Close() error {
	err := c.conn.Close()
	<-c.readerd
	return err
}

// readLoop demultiplexes responses until the connection dies, then
// fails every pending waiter.
func (c *WireClient) readLoop() {
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	var derr error
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Response
		if r, derr = decodeResponse(sc.Bytes()); derr != nil {
			break
		}
		c.mu.Lock()
		var ch chan Response
		if r.Tag != "" {
			ch = c.tags[r.Tag]
			delete(c.tags, r.Tag)
		} else if r.ID != 0 {
			ch = c.ids[r.ID]
			delete(c.ids, r.ID)
		}
		c.mu.Unlock()
		if ch != nil {
			ch <- r // buffered 1; never blocks
		}
	}
	// Every way the stream can end — EOF, a reset, a local Close — is
	// the connection going away, so every pending waiter fails typed.
	// So is a line neither decoder can read: the waiter it answered
	// would otherwise wait forever, and the stream can no longer be
	// trusted to be in step with the requests.
	err := fmt.Errorf("%w: connection closed", ErrUnavailable)
	if derr != nil {
		err = fmt.Errorf("%w: unreadable response: %w", ErrUnavailable, derr)
		c.conn.Close()
	} else if serr := sc.Err(); serr != nil {
		err = fmt.Errorf("%w: %v", ErrUnavailable, serr)
	}
	c.mu.Lock()
	c.broken = err
	tags, ids := c.tags, c.ids
	c.tags, c.ids = map[string]chan Response{}, map[uint64]chan Response{}
	c.mu.Unlock()
	for _, ch := range tags {
		close(ch)
	}
	for _, ch := range ids {
		close(ch)
	}
}

// call sends req and waits for the response registered under reg
// (register must have been called before sending — responses can
// arrive before the write returns).
func (c *WireClient) call(ctx context.Context, req Request, reg func() (chan Response, func())) (Response, error) {
	frame, err := encodeFrame(req, "", nil)
	if err != nil {
		return Response{}, err
	}
	return c.send(ctx, frame, reg)
}

// send writes an encoded frame, releases it, and waits for the
// response registered under reg.
func (c *WireClient) send(ctx context.Context, frame *[]byte, reg func() (chan Response, func())) (Response, error) {
	defer releaseFrame(frame)
	ch, unregister := reg()
	if ch == nil {
		c.mu.Lock()
		err := c.broken
		c.mu.Unlock()
		return Response{}, err
	}
	c.wmu.Lock()
	_, err := c.conn.Write(*frame)
	c.wmu.Unlock()
	if err != nil {
		unregister()
		return Response{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	select {
	case r, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.broken
			c.mu.Unlock()
			return Response{}, err
		}
		return r, nil
	case <-ctx.Done():
		unregister()
		return Response{}, scherr.Canceled(ctx.Err())
	}
}

// regTag registers a waiter for a tagged response; nil channel means
// the transport is already broken.
func (c *WireClient) regTag(tag string) (chan Response, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, nil
	}
	ch := make(chan Response, 1)
	c.tags[tag] = ch
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.tags, tag)
	}
}

// regID registers a waiter for an id-correlated response.
func (c *WireClient) regID(id uint64) (chan Response, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return nil, nil
	}
	ch := make(chan Response, 1)
	c.ids[id] = ch
	return ch, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.ids, id)
	}
}

func (c *WireClient) nextTag() string {
	return "q" + strconv.FormatUint(c.seq.Add(1), 10)
}

// Hello declares the connection's tenant id (quota bucket key).
func (c *WireClient) Hello(ctx context.Context, tenant string) error {
	tag := c.nextTag()
	_, err := c.call(ctx, Request{Op: "hello", Tag: tag, Tenant: tenant}, func() (chan Response, func()) { return c.regTag(tag) })
	return err
}

// Submit submits one instance and returns its ticket. A ctx deadline
// is forwarded as timeout_ms so the server sheds and cancels
// server-side too, not only at the client.
func (c *WireClient) Submit(ctx context.Context, in *moldable.Instance, opt core.Options, wantSchedule bool) (uint64, error) {
	req, frame, err := c.submitFrame(ctx, in, opt, wantSchedule)
	if err != nil {
		return 0, err
	}
	r, err := c.send(ctx, frame, func() (chan Response, func()) { return c.regTag(req.Tag) })
	if err != nil {
		return 0, err
	}
	if r.Code != "" {
		return 0, codeToErr(r.Code, r.Error)
	}
	return r.ID, nil
}

// submitFrame builds Submit's request and its frame: the bytes
// encodeFrame and AppendInstance write for it, the instance taken from
// c.enc when this connection encoded it before.
func (c *WireClient) submitFrame(ctx context.Context, in *moldable.Instance, opt core.Options, wantSchedule bool) (Request, *[]byte, error) {
	req := Request{
		Op: "submit", Tag: c.nextTag(), Algo: opt.Algorithm.String(), Eps: opt.Eps,
		Validate: opt.Validate, Schedule: wantSchedule,
	}
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Seconds() * 1000; ms > 0 {
			req.TimeoutMS = ms
		}
	}
	frame, err := encodeFrame(req, "instance", func(b []byte) ([]byte, error) { return c.enc.appendInstance(b, in) })
	return req, frame, err
}

// Result collects a ticket (wait=true blocks server-side). m is the
// submitted instance's machine size, needed to rebuild the schedule;
// the returned Result mirrors what an in-process service call yields,
// except that only wire-carried report fields are populated.
func (c *WireClient) Result(ctx context.Context, id uint64, wait bool, in *moldable.Instance) (service.Result, error) {
	req := Request{Op: "result", ID: id, Wait: wait}
	r, err := c.call(ctx, req, func() (chan Response, func()) { return c.regID(id) })
	if err != nil {
		return service.Result{}, err
	}
	if r.Code != "" {
		return service.Result{Err: codeToErr(r.Code, r.Error)}, nil
	}
	if r.Done == nil || !*r.Done {
		return service.Result{}, fmt.Errorf("ticket %d still pending", id)
	}
	res := service.Result{Cached: r.Cached, Report: reportFromWire(r)}
	if len(r.Allot) > 0 {
		res.Schedule = scheduleFromWire(in, r)
	}
	return res, nil
}

// reportFromWire rebuilds the wire-carried subset of a core.Report.
func reportFromWire(r Response) *core.Report {
	rep := &core.Report{
		Makespan: r.Makespan, LowerBound: r.LowerBound, Ratio: r.Ratio,
		Iterations: r.Iterations,
		Elapsed:    time.Duration(r.ElapsedMS * float64(time.Millisecond)), //schedlint:ignore fpconv informational duration; truncating the sub-nanosecond tail of a reported elapsed time is harmless
	}
	if a, err := core.ParseAlgorithm(r.Algorithm); err == nil {
		rep.Algorithm = a
	}
	return rep
}

// scheduleFromWire rebuilds a schedule from allot (+ starts, when the
// submit asked for them); durations are re-derived from the instance's
// own oracles, which the client holds.
func scheduleFromWire(in *moldable.Instance, r Response) *schedule.Schedule {
	s := schedule.New(in.M)
	for j, procs := range r.Allot {
		p := schedule.Placement{Job: j, Procs: procs, FirstProc: -1}
		if j < len(r.Starts) {
			p.Start = r.Starts[j]
		}
		if j < in.N() && procs >= 1 {
			p.Duration = in.Jobs[j].Time(procs)
		}
		s.Placements = append(s.Placements, p)
	}
	return s
}

// Stats snapshots the server's aggregated counters.
func (c *WireClient) Stats(ctx context.Context) (service.Stats, error) {
	tag := c.nextTag()
	r, err := c.call(ctx, Request{Op: "stats", Tag: tag}, func() (chan Response, func()) { return c.regTag(tag) })
	if err != nil {
		return service.Stats{}, err
	}
	if r.Stats == nil {
		return service.Stats{}, fmt.Errorf("stats response carried no payload")
	}
	return *r.Stats, nil
}

// OpenOnline opens a remote online session.
func (c *WireClient) OpenOnline(ctx context.Context, cfg online.Config) (uint64, error) {
	req := Request{
		Op: "open_online", Tag: c.nextTag(), M: cfg.M, Policy: cfg.Policy.String(),
		Algo: cfg.Algorithm.String(), Eps: cfg.Eps,
		EpochMin: float64(cfg.EpochMin), EpochGrow: cfg.EpochGrow,
	}
	r, err := c.call(ctx, req, func() (chan Response, func()) { return c.regTag(req.Tag) })
	if err != nil {
		return 0, err
	}
	if r.Code != "" {
		return 0, codeToErr(r.Code, r.Error)
	}
	return r.ID, nil
}

// Arrive admits one arrival into a remote session.
func (c *WireClient) Arrive(ctx context.Context, id uint64, a online.Arrival) ([]online.Event, error) {
	req := Request{Op: "arrive", ID: id, T: float64(a.T)}
	frame, err := encodeFrame(req, "job", func(b []byte) ([]byte, error) { return moldable.AppendJob(b, a.Job) })
	if err != nil {
		return nil, err
	}
	r, err := c.send(ctx, frame, func() (chan Response, func()) { return c.regID(id) })
	if err != nil {
		return nil, err
	}
	evs := eventsFromWire(r.Events)
	if r.Code != "" {
		return evs, codeToErr(r.Code, r.Error)
	}
	return evs, nil
}

// Drain runs a remote session to completion and releases it.
func (c *WireClient) Drain(ctx context.Context, id uint64) ([]online.Event, online.Metrics, error) {
	req := Request{Op: "drain", ID: id}
	r, err := c.call(ctx, req, func() (chan Response, func()) { return c.regID(id) })
	if err != nil {
		return nil, online.Metrics{}, err
	}
	evs := eventsFromWire(r.Events)
	if r.Code != "" {
		return evs, online.Metrics{}, codeToErr(r.Code, r.Error)
	}
	met := online.Metrics{
		Makespan: r.Makespan, MeanWait: moldable.Time(r.MeanWait),
		MeanFlow: moldable.Time(r.MeanFlow), MaxFlow: moldable.Time(r.MaxFlow),
		Utilization: r.Util, Replans: r.Replans, Fallbacks: r.Fallbacks,
		Finished: r.Finished,
	}
	return evs, met, nil
}

func eventsFromWire(ws []WireEvent) []online.Event {
	if len(ws) == 0 {
		return nil
	}
	out := make([]online.Event, len(ws))
	for i, w := range ws {
		out[i] = eventFromWire(w)
	}
	return out
}
