package obs

// The metric catalog. Every metric in the repo is registered here,
// exactly once, with a matching row in docs/OBSERVABILITY.md's metrics
// table — both enforced by the schedlint obsreg analyzer (symmetric
// diff, the wirecode pattern). Keep the declarations grouped by layer
// and the names to lowercase letters and underscores.

// AlgoLabels mirrors core.Algorithm's declaration order so hot record
// sites can index SchedAlgo with int(rep.Algorithm) directly; a core
// test pins the correspondence (obs cannot import core — core imports
// obs).
var AlgoLabels = []string{"auto", "lt2", "mrt", "alg1", "alg3", "linear", "fptas", "conv"}

// OpLabels lists the wire protocol's operations (docs/PROTOCOL.md)
// plus the trailing "other" bucket for unknown ops; netserve indexes
// WireOps/WireOpLatency by position.
var OpLabels = []string{"hello", "submit", "result", "open_online", "arrive", "trace", "drain", "stats", "shutdown", "other"}

// CodeLabels lists the stable wire error codes — the protocol-layer
// table plus the scheduling-core table of docs/PROTOCOL.md §"Error
// codes" — with the trailing "other" bucket.
var CodeLabels = []string{"bad_request", "unknown_ticket", "overloaded", "unavailable", "canceled", "not_monotone", "regime", "bad_eps", "internal", "other"}

// Scheduling core (internal/core, internal/dual).
var (
	SchedCalls        = Default.Counter("sched_calls_total", "scheduling decisions attempted (core.ScheduleScratchCtx entries)")
	SchedErrors       = Default.Counter("sched_errors_total", "scheduling decisions that returned an error")
	SchedLatency      = Default.Histogram("sched_latency_ns", "end-to-end scheduling decision latency, nanoseconds")
	SchedAlgo         = Default.CounterVec("sched_algo_total", "algo", "scheduling decisions by resolved algorithm/regime", AlgoLabels)
	SchedProbes       = Default.Counter("sched_probes_total", "dual-approximation oracle probes (Try calls) across all searches")
	SchedProbeLatency = Default.Histogram("sched_probe_latency_ns", "latency of one dual-search oracle probe, nanoseconds")
	TraceDropped      = Default.Counter("sched_trace_dropped_total", "decision-trace samples dropped because a reader or another writer held the ring")
)

// Online runtime (internal/online).
var (
	OnlineArrivals      = Default.Counter("online_arrivals_total", "jobs admitted into online runtimes")
	OnlineReplans       = Default.Counter("online_replans_total", "epoch replans executed by online runtimes")
	OnlineReplanLatency = Default.Histogram("online_replan_latency_ns", "wall-clock latency of one epoch replan, nanoseconds")
	OnlineBacklog       = Default.Histogram("online_backlog_jobs", "pending-job backlog observed at each replan")
	OnlineFallbacks     = Default.Counter("online_fallbacks_total", "replans that fell back from the configured policy to MRT")
	OnlineDispatchWait  = Default.Histogram("online_dispatch_wait_ms", "arrival-to-dispatch wait in milli-sim-time units")
)

// Service layer (internal/service). The *_total counters increment
// inline; the gauges mirror service.Stats snapshots and refresh at
// scrape time (service.PublishStats).
var (
	ServiceSubmitted      = Default.Counter("service_submitted_total", "batch instances admitted by schedulers")
	ServiceCompleted      = Default.Counter("service_completed_total", "batch instances finished (result available)")
	ServiceErrors         = Default.Counter("service_errors_total", "batch instances finished with an error")
	ServiceResultHits     = Default.Counter("service_result_hits_total", "submissions served from the result cache")
	ServicePending        = Default.Gauge("service_pending", "admitted but unfinished batch instances (scrape-time snapshot)")
	ServiceCachedResults  = Default.Gauge("service_cached_results", "retained result-cache entries (scrape-time snapshot)")
	ServiceOnlineSessions = Default.Gauge("service_online_sessions", "open online sessions (scrape-time snapshot)")
)

// Wire layer (internal/netserve).
var (
	WireOps            = Default.CounterVec("wire_ops_total", "op", "wire requests handled, by operation", OpLabels)
	WireOpLatency      = Default.HistogramVec("wire_op_latency_ns", "op", "request handling latency by operation, nanoseconds", OpLabels)
	WireErrors         = Default.CounterVec("wire_errors_total", "code", "error responses sent, by stable wire code", CodeLabels)
	WireInflight       = Default.Gauge("wire_inflight", "requests currently holding an admission slot")
	WireTenantInflight = Default.GaugeVec("wire_tenant_inflight", "tenant", "admission slots currently held, by tenant")
	WireConns          = Default.Gauge("wire_conns", "open TCP connections on the serving listener")

	// Resubmissions whose decode and probes were skipped (DESIGN.md §5).
	WireInstancesReused = Default.Counter("wire_instances_reused_total", "submitted instances taken from the server's table of known instances instead of decoded and probed")
)
