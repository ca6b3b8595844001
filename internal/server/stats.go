package server

import (
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/tenant"
)

// counters are the server's monotonic request counters. They live in
// the server's obs registry (as gsketch_*_total Prometheus counters);
// byKey lists each under its /stats key, so /stats renders the same
// values from the same counters.
type counters struct {
	byKey []keyedCounter

	ingestRequests      *obs.Counter // POST /ingest requests handled
	edgesAccepted       *obs.Counter // edges accepted: queued (HTTP) or admitted for the connection's fold (wire)
	edgesRejected       *obs.Counter // edges refused with 429 / rejected > 0 (queue full, tenant quota, shard queue)
	queryRequests       *obs.Counter // POST /query requests handled
	queriesAnswered     *obs.Counter // individual edge queries answered
	windowQueries       *obs.Counter // POST /query/window requests handled
	snapshotsSaved      *obs.Counter // successful snapshot saves
	snapshotsRestored   *obs.Counter // successful snapshot restores
	repartitionRequests *obs.Counter // POST /repartition requests handled
	compactRequests     *obs.Counter // POST /compact requests handled

	// Wire-protocol counters, for the TCP listener.
	wireFrames       *obs.Counter // request frames decoded
	wireDecodeErrors *obs.Counter // frames rejected as malformed
	wireBytesIn      *obs.Counter // bytes read off wire transports
	wireBytesOut     *obs.Counter // bytes written to wire transports
	wirePollerWakes  *obs.Counter // query frames answered after waking an idle P
}

// keyedCounter is a counter with its /stats key.
type keyedCounter struct {
	key string
	c   *obs.Counter
}

func newCounters(reg *obs.Registry) *counters {
	c := &counters{}
	mk := func(statsKey, promName, help string) *obs.Counter {
		ctr := reg.Counter(promName, help)
		c.byKey = append(c.byKey, keyedCounter{statsKey, ctr})
		return ctr
	}
	c.ingestRequests = mk("ingest_requests",
		"gsketch_ingest_requests_total", "Ingest requests handled (HTTP and wire).")
	c.edgesAccepted = mk("edges_accepted",
		"gsketch_edges_accepted_total", "Edges accepted: queued by HTTP ingest or admitted for a wire connection's own fold.")
	c.edgesRejected = mk("edges_rejected",
		"gsketch_edges_rejected_total", "Edges shed under backpressure.")
	c.queryRequests = mk("query_requests",
		"gsketch_query_requests_total", "Query requests handled (HTTP and wire).")
	c.queriesAnswered = mk("queries_answered",
		"gsketch_queries_answered_total", "Individual edge queries answered.")
	c.windowQueries = mk("window_query_requests",
		"gsketch_window_query_requests_total", "Window query requests handled.")
	c.snapshotsSaved = mk("snapshots_saved",
		"gsketch_snapshots_saved_total", "Successful snapshot saves.")
	c.snapshotsRestored = mk("snapshots_restored",
		"gsketch_snapshots_restored_total", "Successful snapshot restores.")
	c.repartitionRequests = mk("repartition_requests",
		"gsketch_repartition_requests_total", "Repartition requests handled.")
	c.compactRequests = mk("compact_requests",
		"gsketch_compact_requests_total", "Compaction requests handled.")
	c.wireFrames = mk("wire_frames",
		"gsketch_wire_frames_total", "Wire request frames decoded.")
	c.wireDecodeErrors = mk("wire_decode_errors",
		"gsketch_wire_decode_errors_total", "Wire frames rejected as malformed.")
	c.wireBytesIn = mk("wire_bytes_in",
		"gsketch_wire_bytes_in_total", "Bytes read off wire transports.")
	c.wireBytesOut = mk("wire_bytes_out",
		"gsketch_wire_bytes_out_total", "Bytes written to wire transports.")
	c.wirePollerWakes = mk("wire_poller_wakes",
		"gsketch_wire_poller_wakes_total", "Wire query frames answered after waking an idle P into netpoll.")
	return c
}

// addTo sets every counter's value under its /stats key.
func (c *counters) addTo(stats map[string]any) {
	for _, kc := range c.byKey {
		stats[kc.key] = kc.c.Value()
	}
}

// view is the snapshot every gauge reads: one Engine.Stats() or one
// RegistryStats() per /stats request or /metrics scrape, with the clock,
// readiness and the time of the last snapshot read beside it. Whatever an engine lacks (a pipeline, a
// recorder, routing counters) is filled in with its idle value, so a row
// reads the view without nil checks.
type view struct {
	now      time.Time
	uptime   time.Duration
	ready    bool
	lastSnap time.Time // zero before the first
	eng      gsketch.EngineStats
	reg      tenant.Stats
}

func (s *Server) view() view {
	v := view{now: s.cfg.Now(), ready: s.ready() == nil}
	v.uptime = v.now.Sub(s.start)
	if s.tenants != nil {
		v.reg = s.tenants.RegistryStats()
		return v
	}
	if ns := s.lastSnap.Load(); ns != 0 {
		v.lastSnap = time.Unix(0, ns)
	}
	v.eng = s.eng.Stats()
	e := &v.eng
	if e.Workload == nil {
		e.Workload = &gsketch.WorkloadStats{}
	}
	if e.ReadRoutes == nil || e.WriteRoutes == nil {
		e.ReadRoutes = &gsketch.RouteCounts{Partitions: []int64{}}
		e.WriteRoutes = e.ReadRoutes
	}
	return v
}

// gauge is one row of the gauge table: a value read from the view, with
// its /stats key and its Prometheus family. An integral row reads through
// i and renders as a JSON integer, a fractional row through f. A counter
// row is integral and only grows between resets (a restore, a swap, a
// restart). A list row is /stats-only: it has no family, since one series
// per partition has no bound on cardinality.
type gauge struct {
	key, name, help string
	counter         bool
	i               func(*view) int64
	f               func(*view) float64
	list            func(*view) []int64
}

func (g *gauge) value(v *view) any {
	switch {
	case g.i != nil:
		return g.i(v)
	case g.f != nil:
		return g.f(v)
	}
	return g.list(v)
}

// serverGauges are served by every server, whatever its backend.
var serverGauges = []gauge{
	{key: "uptime_seconds", name: "gsketch_uptime_seconds", help: "Seconds since the server started.",
		f: func(v *view) float64 { return v.uptime.Seconds() }},
	{key: "ready", name: "gsketch_ready", help: "1 when /readyz would answer 200, 0 otherwise.",
		i: func(v *view) int64 {
			if v.ready {
				return 1
			}
			return 0
		}},
}

// engineGauges are an engine's gauges, read from one Engine.Stats().
var engineGauges = []gauge{
	{key: "stream_total", name: "gsketch_engine_stream_total", help: "Stream volume folded into the estimator.",
		i: func(v *view) int64 { return v.eng.StreamTotal }},
	{key: "partitions", name: "gsketch_engine_partitions", help: "Serving estimator partition count.",
		i: func(v *view) int64 { return int64(v.eng.Partitions) }},
	{key: "memory_bytes", name: "gsketch_engine_memory_bytes", help: "Estimator counter footprint in bytes.",
		i: func(v *view) int64 { return int64(v.eng.MemoryBytes) }},

	{key: "edges_applied", name: "gsketch_ingest_edges_applied_total", counter: true,
		help: "Edges folded into the sketch by the ingest queue's workers and by wire connections.",
		i:    func(v *view) int64 { return v.eng.Ingest.EdgesApplied }},
	{key: "batches_applied", name: "gsketch_ingest_batches_applied_total", counter: true,
		help: "Batches folded into the sketch; a wire frame is one batch, whatever its size.",
		i:    func(v *view) int64 { return v.eng.Ingest.BatchesApplied }},
	{key: "queue_depth", name: "gsketch_ingest_queue_depth",
		help: "Batches waiting in the ingest queue, which HTTP ingest feeds; a wire connection folds its own frames and never enters it.",
		i:    func(v *view) int64 { return int64(v.eng.Ingest.QueueDepth) }},
	{key: "queue_cap", name: "gsketch_ingest_queue_cap", help: "Ingest queue bound (HTTP ingest starts shedding at capacity).",
		i: func(v *view) int64 { return int64(v.eng.Ingest.QueueCap) }},
	{key: "inflight", name: "gsketch_ingest_inflight",
		help: "Batches accepted and not yet folded: queued, being folded, or acked on a wire connection and awaiting its fold.",
		i:    func(v *view) int64 { return int64(v.eng.Ingest.Inflight) }},
	{key: "sheds", name: "gsketch_ingest_sheds_total", counter: true,
		help: "Load-shedding events: non-blocking pushes (HTTP ingest) refused on a full queue; an engine never sheds a wire frame.",
		i:    func(v *view) int64 { return v.eng.Ingest.Sheds }},

	{key: "workload_seen", name: "gsketch_workload_seen_total", counter: true, help: "Queries offered to the workload recorder.",
		i: func(v *view) int64 { return v.eng.Workload.Seen }},
	{key: "workload_sample", name: "gsketch_workload_sample", help: "Queries held in the workload reservoir.",
		i: func(v *view) int64 { return int64(v.eng.Workload.Sample) }},
	{key: "workload_capacity", name: "gsketch_workload_capacity", help: "Workload reservoir capacity.",
		i: func(v *view) int64 { return int64(v.eng.Workload.Capacity) }},

	// Routing: per-partition hits and the outlier share of the serving
	// head, split by direction — the raw signal adaptive repartitioning
	// watches. A swap or restore starts them over.
	{key: "route_read_hits", list: func(v *view) []int64 { return v.eng.ReadRoutes.Partitions }},
	{key: "route_read_outlier", name: "gsketch_route_read_outlier_total", counter: true,
		help: "Reads the serving head routed to its outlier sketch.",
		i:    func(v *view) int64 { return v.eng.ReadRoutes.Outlier }},
	{key: "route_read_outlier_share", name: "gsketch_route_read_outlier_share", help: "Outlier share of the serving head's routed reads.",
		f: func(v *view) float64 { return v.eng.ReadRoutes.OutlierShare() }},
	{key: "route_write_hits", list: func(v *view) []int64 { return v.eng.WriteRoutes.Partitions }},
	{key: "route_write_outlier", name: "gsketch_route_write_outlier_total", counter: true,
		help: "Writes the serving head routed to its outlier sketch.",
		i:    func(v *view) int64 { return v.eng.WriteRoutes.Outlier }},
	{key: "route_write_outlier_share", name: "gsketch_route_write_outlier_share", help: "Outlier share of the serving head's routed writes.",
		f: func(v *view) float64 { return v.eng.WriteRoutes.OutlierShare() }},

	// The generation chain. An engine without a repartition manager reads
	// no drift.
	{key: "generations", name: "gsketch_engine_generations", help: "Sketch generations serving reads.",
		i: func(v *view) int64 { return int64(v.eng.Adapt.Generations) }},
	{key: "repartitions", name: "gsketch_adapt_repartitions_total", counter: true, help: "Completed repartition swaps.",
		i: func(v *view) int64 { return v.eng.Adapt.Repartitions }},
	{key: "compactions", name: "gsketch_compactions_total", counter: true,
		help: "Completed generation folds (manual, policy loop, cap pressure).",
		i:    func(v *view) int64 { return v.eng.Adapt.Compactions }},
	{key: "resident_generations", name: "gsketch_engine_generations_resident", help: "Generations with counters in RAM.",
		i: func(v *view) int64 { return int64(v.eng.Adapt.ResidentGenerations) }},
	{key: "tiered_generations", name: "gsketch_engine_generations_tiered", help: "Frozen generations with a disk-tier copy.",
		i: func(v *view) int64 { return int64(v.eng.Adapt.TieredGenerations) }},
	{key: "tiered_bytes", name: "gsketch_engine_tiered_bytes", help: "Counter footprint spilled off RAM to the disk tier.",
		i: func(v *view) int64 { return v.eng.Adapt.TieredBytes }},
	{key: "compacted_from", name: "gsketch_engine_compacted_from",
		help: "Source generations the chain represents: its generations plus every one compaction absorbed.",
		i:    func(v *view) int64 { return int64(v.eng.Adapt.CompactedFrom) }},
	{key: "drift_workload_divergence", name: "gsketch_adapt_drift_workload_divergence", help: "Live-vs-baseline workload divergence.",
		f: func(v *view) float64 { return v.eng.Adapt.Drift.WorkloadDivergence }},
	{key: "drift_outlier_share", name: "gsketch_adapt_drift_outlier_share", help: "Outlier share of head reads since last swap.",
		f: func(v *view) float64 { return v.eng.Adapt.Drift.OutlierShare }},
	{key: "adapt_data_sample", name: "gsketch_adapt_data_sample", help: "Edges held in the chain's data reservoir.",
		i: func(v *view) int64 { return int64(v.eng.Adapt.Drift.DataSample) }},

	{key: "snapshot_age_seconds", name: "gsketch_snapshot_age_seconds",
		help: "Seconds since the last snapshot save or restore; -1 before the first.",
		f: func(v *view) float64 {
			if v.lastSnap.IsZero() {
				return -1
			}
			return v.now.Sub(v.lastSnap).Seconds()
		}},
}

// tenantGauges are a tenant registry's gauges, read from one
// RegistryStats(). The per-tenant series are labeled sets on /metrics
// only (registerTenantMetrics).
var tenantGauges = []gauge{
	{key: "tenants", name: "gsketch_tenants", help: "Registered tenants.",
		i: func(v *view) int64 { return int64(v.reg.Tenants) }},
	{key: "tenants_resident", name: "gsketch_tenants_resident", help: "Tenants with a live engine.",
		i: func(v *view) int64 { return int64(v.reg.Resident) }},
	{key: "tenant_evictions", name: "gsketch_tenant_evictions_total", counter: true,
		help: "Cold tenants snapshotted to disk and closed under the LRU cap.",
		i:    func(v *view) int64 { return v.reg.Evictions }},
	{key: "tenant_reopens", name: "gsketch_tenant_reopens_total", counter: true,
		help: "Evicted tenants reopened from snapshot on access.",
		i:    func(v *view) int64 { return v.reg.Reopens }},
}

// registerGauges puts every row with a family on /metrics. The prepare
// hook takes one view per scrape and every row reads it, so a scrape costs
// one Stats() call, as a /stats request does.
func (s *Server) registerGauges() {
	reg := s.metrics.reg
	var snap atomic.Pointer[view]
	reg.AddPrepare(func() {
		v := s.view()
		snap.Store(&v)
	})
	for _, g := range s.gauges {
		switch {
		case g.name == "":
		case g.counter:
			reg.CounterFunc(g.name, g.help, func() int64 { return g.i(snap.Load()) })
		case g.i != nil:
			reg.GaugeFunc(g.name, g.help, func() float64 { return float64(g.i(snap.Load())) })
		default:
			reg.GaugeFunc(g.name, g.help, func() float64 { return g.f(snap.Load()) })
		}
	}
}
