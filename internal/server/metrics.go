package server

import (
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// serverMetrics is the server's instrument panel: every metric the serving
// stack records, pre-registered once per registry so hot paths never pay a
// family lookup. All families share the truss_ prefix; see the README's
// Operations section for the catalog.
type serverMetrics struct {
	reg *obs.Registry

	// HTTP layer. Request counters and latency histograms are labeled by
	// route pattern and status code; resolved series are cached in
	// lock-free maps so the steady-state per-request cost is two atomic
	// map loads plus the atomic adds themselves.
	inflight   *obs.Gauge
	shed       *obs.Counter
	routeCount sync.Map // routeKey -> *obs.Counter
	routeDur   sync.Map // string (route) -> *obs.Histogram

	// Build / compute path.
	builds     *obs.Counter
	buildFails *obs.Counter
	buildDur   *obs.Histogram
	buildLvls  *obs.Counter
	buildEdges *obs.Counter
	// PKT engine shape (zero when builds fall back to the serial peel).
	buildRounds   *obs.Counter
	buildFrontier *obs.Counter
	kernelMerge   *obs.Counter
	kernelProbe   *obs.Counter

	// Dynamic maintenance.
	maints        *obs.Counter
	maintDur      *obs.Histogram
	maintChanged  *obs.Counter
	maintRegion   *obs.Counter
	maintFallback *obs.Counter
	maintParallel *obs.Counter

	// Ingestion pipeline (group commit). The ingest package owns the
	// family definitions; the server shares one instance across all
	// per-graph pipelines so /metrics aggregates the whole firehose.
	ingest *ingest.Metrics

	// Durability (snapshot + WAL).
	snapSaves   *obs.Counter
	snapFails   *obs.Counter
	snapDur     *obs.Histogram
	walAppends  *obs.Counter
	compactions *obs.Counter
	recovered   *obs.Counter
	replayed    *obs.Counter

	// Indexfile serving (snapshot v2): open latency, bytes currently
	// mapped, and which path each recovered graph took back to serving.
	ixOpenDur       *obs.Histogram
	ixMapped        *obs.Gauge
	restartV2Open   *obs.Counter
	restartV2Replay *obs.Counter

	// Replication, primary side: live WAL tails, records streamed to
	// followers, hydrations served, resync signals sent.
	replTails          *obs.Gauge
	replRecords        *obs.Counter
	replHydrations     *obs.Counter
	replHydrationBytes *obs.Counter
	replResyncs        *obs.Counter

	// Registry state.
	graphsReady *obs.Gauge
}

// restartPathHelp documents truss_restart_path_total's two series.
const restartPathHelp = "Recovered graphs by restart path: v2-open serves the mapped snapshot directly, " +
	"v2-replay patches WAL batches over it."

// routeKey identifies one (route, status) request-counter series.
type routeKey struct {
	route string
	code  int
}

// newServerMetrics registers the serving metric families on reg.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &serverMetrics{
		reg:      reg,
		inflight: reg.Gauge("truss_http_inflight", "HTTP requests currently in flight."),
		shed:     reg.Counter("truss_http_shed_total", "Requests rejected with 429 by the admission limiter."),

		builds:     reg.Counter("truss_build_total", "Completed decomposition builds."),
		buildFails: reg.Counter("truss_build_failures_total", "Decomposition builds that failed or were aborted."),
		buildDur:   reg.Histogram("truss_build_seconds", "Decomposition + indexing duration.", obs.WideBuckets),
		buildLvls:  reg.Counter("truss_build_levels_total", "Peeling levels visited across all builds."),
		buildEdges: reg.Counter("truss_build_edges_peeled_total", "Edges peeled (classified) across all builds."),
		buildRounds: reg.Counter("truss_build_pkt_rounds_total",
			"PKT bulk-synchronous sub-rounds executed across all builds."),
		buildFrontier: reg.Counter("truss_build_pkt_frontier_edges_total",
			"Edges peeled through PKT frontiers across all builds."),
		kernelMerge: reg.Counter("truss_build_pkt_kernel_dispatch_total",
			"Adaptive triangle-kernel strategy choices across all builds.", "kernel", "merge"),
		kernelProbe: reg.Counter("truss_build_pkt_kernel_dispatch_total",
			"Adaptive triangle-kernel strategy choices across all builds.", "kernel", "probe"),

		maints:        reg.Counter("truss_maintenance_total", "Incremental maintenance batches applied."),
		maintDur:      reg.Histogram("truss_maintenance_seconds", "Incremental maintenance duration.", nil),
		maintChanged:  reg.Counter("truss_maintenance_changed_edges_total", "Edges whose truss number changed under maintenance."),
		maintRegion:   reg.Counter("truss_maintenance_region_edges_total", "Edges re-peeled inside affected regions."),
		maintFallback: reg.Counter("truss_maintenance_fallbacks_total", "Maintenance batches that fell back to full recompute."),
		maintParallel: reg.Counter("truss_maintenance_parallel_peels_total",
			"Region re-peels in which some phase ran on more than one goroutine."),

		ingest: ingest.NewMetrics(reg),

		snapSaves:   reg.Counter("truss_snapshot_saves_total", "Durable snapshots written."),
		snapFails:   reg.Counter("truss_snapshot_failures_total", "Snapshot writes that failed."),
		snapDur:     reg.Histogram("truss_snapshot_seconds", "Snapshot write duration.", nil),
		walAppends:  reg.Counter("truss_wal_appends_total", "Mutation batches appended to WALs."),
		compactions: reg.Counter("truss_wal_compactions_total", "WALs folded into fresh snapshots."),
		recovered:   reg.Counter("truss_recovered_graphs_total", "Graphs restored from durable state at startup."),
		replayed:    reg.Counter("truss_wal_replayed_batches_total", "WAL mutation batches replayed during recovery."),

		ixOpenDur: reg.Histogram("truss_indexfile_open_seconds",
			"Time to open (map + validate) an index snapshot at recovery.", nil),
		ixMapped: reg.Gauge("truss_indexfile_mapped_bytes",
			"Bytes of index snapshots currently memory-mapped and serving."),
		restartV2Open:   reg.Counter("truss_restart_path_total", restartPathHelp, "path", "v2-open"),
		restartV2Replay: reg.Counter("truss_restart_path_total", restartPathHelp, "path", "v2-replay"),

		replTails: reg.Gauge("truss_replication_tails_active",
			"WAL tail streams currently held open by followers."),
		replRecords: reg.Counter("truss_replication_records_streamed_total",
			"Committed mutation records streamed to followers."),
		replHydrations: reg.Counter("truss_replication_hydrations_served_total",
			"Snapshot downloads served to hydrating followers."),
		replHydrationBytes: reg.Counter("truss_replication_hydration_bytes_total",
			"Snapshot bytes streamed to hydrating followers."),
		replResyncs: reg.Counter("truss_replication_resyncs_signaled_total",
			"WAL tails ended with a resync signal (rebuild, compaction past the follower, or version regression)."),

		graphsReady: reg.Gauge("truss_graphs_ready", "Graphs currently resident and serving."),
	}
}

// request records one served request: the per-route/status counter and the
// per-route latency histogram. Unrouted requests (404s, admission sheds)
// are labeled "unrouted" so their volume is visible without exploding
// cardinality on attacker-chosen paths.
func (m *serverMetrics) request(route string, code int, elapsed time.Duration) {
	if route == "" {
		route = "unrouted"
	}
	key := routeKey{route, code}
	cv, ok := m.routeCount.Load(key)
	if !ok {
		cv, _ = m.routeCount.LoadOrStore(key,
			m.reg.Counter("truss_http_requests_total", "HTTP requests served, by route pattern and status code.",
				"route", route, "code", codeLabel(code)))
	}
	hv, ok := m.routeDur.Load(route)
	if !ok {
		hv, _ = m.routeDur.LoadOrStore(route,
			m.reg.Histogram("truss_http_request_seconds", "HTTP request latency by route pattern.", nil,
				"route", route))
	}
	cv.(*obs.Counter).Inc()
	hv.(*obs.Histogram).Observe(elapsed.Seconds())
}

// codeLabel is strconv.Itoa for the three-digit status-code domain, kept
// to avoid the import in this hot file.
func codeLabel(code int) string {
	if code >= 100 && code < 1000 {
		return string([]byte{byte('0' + code/100), byte('0' + code/10%10), byte('0' + code%10)})
	}
	var buf [8]byte
	i := len(buf)
	n := code
	if n <= 0 {
		return "0"
	}
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// walSize returns the per-graph WAL size gauge — the compaction signal an
// operator watches. Cardinality is bounded by the operator's own registry
// names, never by request input.
func (m *serverMetrics) walSize(name string) *obs.Gauge {
	return m.reg.Gauge("truss_wal_size_bytes", "Current WAL size per graph, reset by compaction.", "graph", name)
}
