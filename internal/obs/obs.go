// Package obs is the zero-allocation observability core: a stdlib-only
// metrics registry (atomic counters, gauges, and power-of-two-bucket
// histograms), one decision-trace ring buffer, and a Prometheus
// text exposition of both (docs/OBSERVABILITY.md).
//
// The design constraint that shapes everything here is the hot-path
// discipline of DESIGN.md §6/§10: recording a sample from inside a
// //sched:hotpath function must be a few atomic operations with zero
// heap allocations steady-state, so the instrumented scheduler still
// pins 0 allocs/op in TestScheduleScratchZeroAlloc, adds no heap
// escape to the escapegate snapshot and nothing schedlint's hotalloc
// flags (no map, append growth or string copy). That rules out the
// usual label-map-per-observation client library shape:
//
//   - Every metric is preregistered once, centrally, in metrics.go
//     (the obsreg analyzer enforces exactly-once registration and a
//     matching row in docs/OBSERVABILITY.md's metrics table).
//   - Fixed-cardinality label sets (per-algorithm, per-op, per-code)
//     are dense vectors indexed by a small integer the caller already
//     has; no map lookup, no string formatting on the record path.
//   - Histograms use power-of-two buckets indexed by bits.Len64, so an
//     observation is two atomic adds and an increment — no search, no
//     float math.
//   - Dynamic-cardinality labels (per-tenant) live behind a mutex map;
//     those record sites are off the scratch hot path by construction.
//
// Recording is globally gated by an atomic enable switch (On /
// SetEnabled) so the enabled-vs-disabled overhead can be measured
// (BenchmarkObsOverhead_On/Off; docs/PERFORMANCE.md quotes the delta).
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// enabled gates every record site. Defaults to on: the whole point of
// the layer is that always-on costs nothing measurable (<2%,
// docs/PERFORMANCE.md); the switch exists to prove that claim and to
// hard-kill telemetry in pathological cases.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// On reports whether recording is enabled. Hot-path record sites check
// it first so a disabled registry costs one atomic load.
//
//sched:hotpath
func On() bool { return enabled.Load() }

// SetEnabled flips the global record switch and returns the previous
// state (so tests and benchmarks can restore it).
func SetEnabled(v bool) bool { return enabled.Swap(v) }

// Metric is one registered time series (or family, for vecs): a name,
// a help string, and a Prometheus text rendering (prom.go).
type Metric interface {
	Name() string
	Help() string
	promType() string
	promWrite(b []byte) []byte // append exposition lines
}

// Registry holds the preregistered metrics.
// Registration happens at package init (metrics.go) and panics on a
// duplicate or malformed name — misregistration is a programming
// error, and the obsreg analyzer catches it before the process does.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric          //sched:guardedby mu
	byName  map[string]Metric //sched:guardedby mu
}

// Default is the process registry; metrics.go declares the catalog on
// it and every record site in the repo points here.
var Default = &Registry{}

// validName reports whether a metric name fits the documented shape:
// lowercase letters and underscores only. The restriction is what lets
// the obsreg analyzer diff code against the OBSERVABILITY.md table
// with the same cell syntax wirecode uses for protocol codes.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '_' && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}

func (r *Registry) register(m Metric) {
	if !validName(m.Name()) {
		panic("obs: invalid metric name " + m.Name() + " (want lowercase letters and underscores)")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName == nil {
		r.byName = make(map[string]Metric)
	}
	if _, dup := r.byName[m.Name()]; dup {
		panic("obs: duplicate metric registration " + m.Name())
	}
	r.byName[m.Name()] = m
	r.metrics = append(r.metrics, m)
}

// snapshotMetrics returns the registered metrics sorted by name.
func (r *Registry) snapshotMetrics() []Metric {
	r.mu.Lock()
	ms := make([]Metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name() < ms[j].Name() })
	return ms
}

// Counter registers and returns a monotonically increasing counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// Gauge registers and returns a settable instantaneous value.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// Histogram registers and returns a power-of-two-bucket histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{name: name, help: help}
	r.register(h)
	return h
}

// CounterVec registers a dense counter family over a fixed label set.
// Hot callers index children by position (At) with an integer they
// already hold; WithLabel is the cold-path lookup by value and maps
// unknown values to the last child, which by convention is "other".
func (r *Registry) CounterVec(name, label, help string, values []string) *CounterVec {
	v := &CounterVec{name: name, help: help, label: label, vals: values, cs: make([]Counter, len(values))}
	if len(values) == 0 {
		panic("obs: empty label set for " + name)
	}
	r.register(v)
	return v
}

// HistogramVec registers a dense histogram family over a fixed label
// set, with the same indexing contract as CounterVec.
func (r *Registry) HistogramVec(name, label, help string, values []string) *HistogramVec {
	v := &HistogramVec{name: name, help: help, label: label, vals: values, hs: make([]Histogram, len(values))}
	if len(values) == 0 {
		panic("obs: empty label set for " + name)
	}
	r.register(v)
	return v
}

// GaugeVec registers a gauge family over a dynamic label (per-tenant
// state and the like). Children are created on first use, behind a
// mutex — never from a //sched:hotpath function. Cardinality is
// bounded: past maxGaugeChildren every new value shares one
// "_overflow" child, so a hostile label stream cannot grow the scrape.
func (r *Registry) GaugeVec(name, label, help string) *GaugeVec {
	v := &GaugeVec{name: name, help: help, label: label}
	r.register(v)
	return v
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Inc adds one.
//
//sched:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the series monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Help returns the registered help text.
func (c *Counter) Help() string { return c.help }

// Gauge is an instantaneous value: set from snapshots (scrape-time
// refresh) or moved with Inc/Dec (in-flight tracking).
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered metric name.
func (g *Gauge) Name() string { return g.name }

// Help returns the registered help text.
func (g *Gauge) Help() string { return g.help }

// numBuckets covers bits.Len64's full range: bucket i holds samples v
// with bits.Len64(uint64(v)) == i, i.e. 2^(i-1) ≤ v < 2^i (bucket 0 is
// exactly v == 0). Upper bounds are therefore 0, 1, 3, 7, …, 2^i−1.
const numBuckets = 65

// Histogram is a fixed-bucket power-of-two histogram. One observation
// is three atomic adds; bucket choice is a single bits.Len64, so there
// is no search, no float comparison, and no allocation ever.
type Histogram struct {
	name, help string
	buckets    [numBuckets]atomic.Int64
	sum        atomic.Int64
	count      atomic.Int64
}

// Observe records one sample. Negative samples clamp to 0 (they can
// only arise from clock anomalies on latency series).
//
//sched:hotpath
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// maxFloatSample caps float observations below 2^62 so the conversion
// to the integer bucket domain cannot overflow.
const maxFloatSample = float64(1 << 62)

// ObserveFloat records a float sample by flooring it into the integer
// bucket domain (used for sim-time series, pre-scaled by the caller).
//
//sched:hotpath
func (h *Histogram) ObserveFloat(v float64) {
	if math.IsNaN(v) || v < 0 {
		v = 0
	}
	if v > maxFloatSample {
		v = maxFloatSample
	}
	// Flooring into a power-of-two bucket is the intent here, not a
	// precision bug; the clamp above keeps the conversion in range.
	h.Observe(int64(v))
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket returns the count in bucket i (samples with
// bits.Len64(v) == i); see numBuckets for the bucket geometry.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Help returns the registered help text.
func (h *Histogram) Help() string { return h.help }

// CounterVec is a dense counter family over a fixed, preregistered
// label set. See Registry.CounterVec for the indexing contract.
type CounterVec struct {
	name, help, label string
	vals              []string
	cs                []Counter
}

// At returns the child counter at index i (panics out of range, like a
// slice: the index is a small enum the caller owns).
//
//sched:hotpath
func (v *CounterVec) At(i int) *Counter { return &v.cs[i] }

// Len returns the number of children.
func (v *CounterVec) Len() int { return len(v.cs) }

// LabelValue returns the label value of child i.
func (v *CounterVec) LabelValue(i int) string { return v.vals[i] }

// WithLabel returns the child for a label value, or the last child
// (conventionally "other") when the value is not in the set.
func (v *CounterVec) WithLabel(val string) *Counter {
	for i, s := range v.vals {
		if s == val {
			return &v.cs[i]
		}
	}
	return &v.cs[len(v.cs)-1]
}

// Name returns the registered metric name.
func (v *CounterVec) Name() string { return v.name }

// Help returns the registered help text.
func (v *CounterVec) Help() string { return v.help }

// HistogramVec is a dense histogram family over a fixed label set,
// indexed like CounterVec.
type HistogramVec struct {
	name, help, label string
	vals              []string
	hs                []Histogram
}

// At returns the child histogram at index i.
func (v *HistogramVec) At(i int) *Histogram { return &v.hs[i] }

// Len returns the number of children.
func (v *HistogramVec) Len() int { return len(v.hs) }

// LabelValue returns the label value of child i.
func (v *HistogramVec) LabelValue(i int) string { return v.vals[i] }

// WithLabel returns the child for a label value, or the last child
// ("other") when the value is not in the set.
func (v *HistogramVec) WithLabel(val string) *Histogram {
	for i, s := range v.vals {
		if s == val {
			return &v.hs[i]
		}
	}
	return &v.hs[len(v.hs)-1]
}

// Name returns the registered metric name.
func (v *HistogramVec) Name() string { return v.name }

// Help returns the registered help text.
func (v *HistogramVec) Help() string { return v.help }

// maxGaugeChildren bounds dynamic-label cardinality; see
// Registry.GaugeVec.
const maxGaugeChildren = 1024

// overflowLabel is the shared child past the cardinality bound.
const overflowLabel = "_overflow"

// GaugeVec is a gauge family over a dynamic label. With is a mutex map
// lookup and so must stay off //sched:hotpath spans; callers on warm
// paths cache the child pointer.
type GaugeVec struct {
	name, help, label string

	mu       sync.Mutex
	children map[string]*Gauge //sched:guardedby mu
	order    []string          //sched:guardedby mu — creation order, for stable exposition
}

// With returns the child gauge for a label value, creating it on first
// use. Past maxGaugeChildren distinct values, every new value shares
// the "_overflow" child.
func (v *GaugeVec) With(val string) *Gauge {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.children == nil {
		v.children = make(map[string]*Gauge)
	}
	if g, ok := v.children[val]; ok {
		return g
	}
	if len(v.children) >= maxGaugeChildren {
		val = overflowLabel
		if g, ok := v.children[val]; ok {
			return g
		}
	}
	g := &Gauge{name: v.name, help: v.help}
	v.children[val] = g
	v.order = append(v.order, val)
	return g
}

// Name returns the registered metric name.
func (v *GaugeVec) Name() string { return v.name }

// Help returns the registered help text.
func (v *GaugeVec) Help() string { return v.help }
