package netserve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// Limits configures admission control and per-tenant quotas. The zero
// value disables both (every request admitted) — the stdin daemon's
// default; Server installs whatever its config carries.
type Limits struct {
	// MaxInflight bounds concurrently admitted costed requests
	// (submit, open_online, arrive, drain) across all connections
	// sharing the Limiter. 0 means unlimited. A submit that cannot be
	// admitted waits for a slot up to its own timeout_ms deadline and
	// is shed with the "overloaded" code when the deadline arrives
	// first (deadline-based load shedding); requests with no deadline,
	// and the synchronous session ops, are shed immediately when the
	// budget is exhausted — blocking them would wedge their
	// connection's read loop.
	MaxInflight int

	// QuotaRate refills each declared tenant's token bucket at this
	// many requests per second; QuotaBurst is the bucket capacity
	// (defaults to QuotaRate when 0, and is raised to at least 1: a
	// request takes a whole token). Rate 0 disables quotas.
	// Connections that never declare a tenant (no "hello") share the
	// "" bucket when quotas are on, so anonymous traffic cannot bypass
	// the limiter.
	QuotaRate  float64
	QuotaBurst float64
}

// Limiter enforces Limits. One Limiter is shared by every connection
// of a Server; a nil *Limiter admits everything.
type Limiter struct {
	limits Limits
	slots  chan struct{} // admission budget; nil when unlimited

	mu      sync.Mutex
	buckets map[string]*bucket //sched:guardedby mu
}

// bucket is one tenant's token bucket. Guarded by the Limiter's mu
// (quota decisions are rare next to scheduling work; one lock keeps
// the accounting trivially consistent).
type bucket struct {
	tokens float64
	last   time.Time
}

// NewLimiter builds a Limiter for the given Limits.
func NewLimiter(l Limits) *Limiter {
	lim := &Limiter{limits: l}
	if l.MaxInflight > 0 {
		lim.slots = make(chan struct{}, l.MaxInflight)
	}
	if l.QuotaRate > 0 {
		lim.buckets = make(map[string]*bucket)
		if lim.limits.QuotaBurst <= 0 {
			lim.limits.QuotaBurst = l.QuotaRate
		}
		// A bucket capped below one token would never admit a request.
		lim.limits.QuotaBurst = max(lim.limits.QuotaBurst, 1)
	}
	return lim
}

// tenantLabel maps the anonymous tenant ("") onto a printable gauge
// label; declared tenants pass through.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "anonymous"
	}
	return tenant
}

// admitted / released feed the in-flight gauges (total and per-tenant)
// on both the limited and the unlimited (nil Limiter) paths, so the
// gauges mean "costed requests in flight", not "slots held".
func admitted(tenant string) {
	if !obs.On() {
		return
	}
	obs.WireInflight.Inc()
	obs.WireTenantInflight.With(tenantLabel(tenant)).Inc()
}

func released(tenant string) {
	if !obs.On() {
		return
	}
	obs.WireInflight.Dec()
	obs.WireTenantInflight.With(tenantLabel(tenant)).Dec()
}

// acquire claims one admission slot for tenant. wait=true lets the
// caller queue for a slot until ctx ends (the deadline-based shedding
// path: ctx carries the request's timeout_ms deadline); wait=false
// sheds immediately when the budget is exhausted. The returned error,
// when non-nil, matches ErrOverloaded. Every successful acquire must
// be paired with a release(tenant) — the pair also maintains the
// in-flight gauges.
func (l *Limiter) acquire(ctx context.Context, tenant string, wait bool) error {
	if l == nil || l.slots == nil {
		admitted(tenant)
		return nil
	}
	select {
	case l.slots <- struct{}{}:
		admitted(tenant)
		return nil
	default:
	}
	if !wait {
		return fmt.Errorf("%w: %d requests in flight", ErrOverloaded, cap(l.slots))
	}
	select {
	case l.slots <- struct{}{}:
		admitted(tenant)
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: no capacity within deadline (%v)", ErrOverloaded, ctx.Err())
	}
}

// release returns an acquired slot.
func (l *Limiter) release(tenant string) {
	released(tenant)
	if l == nil || l.slots == nil {
		return
	}
	<-l.slots
}

// takeToken draws one request from the tenant's quota bucket,
// refilling by elapsed wall clock first. The returned error, when
// non-nil, matches ErrOverloaded.
func (l *Limiter) takeToken(tenant string) error {
	if l == nil || l.limits.QuotaRate <= 0 {
		return nil
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[tenant]
	if !ok {
		b = &bucket{tokens: l.limits.QuotaBurst, last: now}
		l.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * l.limits.QuotaRate
	b.last = now
	if b.tokens > l.limits.QuotaBurst {
		b.tokens = l.limits.QuotaBurst
	}
	if b.tokens < 1 {
		return fmt.Errorf("%w: tenant %q over quota (%.3g req/s)", ErrOverloaded, tenant, l.limits.QuotaRate)
	}
	b.tokens--
	return nil
}
