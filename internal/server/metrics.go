package server

import (
	"sync/atomic"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// serverMetrics holds the instruments resolved once at New: the hot
// paths (HTTP handlers, the wire pipeline) update them through direct
// pointers — no map lookups, no label formatting, no allocations.
type serverMetrics struct {
	reg *obs.Registry

	// httpLatency is keyed by mux route pattern, resolved at routes()
	// build time; handlers are wrapped once.
	httpLatency map[string]*obs.Histogram

	// wireDecode covers record decode per frame; wireApply is indexed by
	// request frame type (TypeIngest..TypeTenantSelect). An ingest frame's
	// apply time runs through its ack and the connection's fold of it.
	wireDecode *obs.Histogram
	wireApply  [16]*obs.Histogram

	// swap observes adapt repartition build+rotate durations; compact
	// observes generation-fold durations (manual and policy-triggered).
	swap    *obs.Histogram
	compact *obs.Histogram
}

// wireTypeNames labels the wireApply children; only request types the
// server applies are registered.
var wireTypeNames = map[byte]string{
	wire.TypeIngest:       "ingest",
	wire.TypeQuery:        "query",
	wire.TypeFlush:        "flush",
	wire.TypePing:         "ping",
	wire.TypeTenantSelect: "tenant_select",
}

// newServerMetrics builds the registry skeleton shared by both
// backends: request counters (also exported through /stats), latency
// histograms and the uptime/readiness gauges. Backend-specific gauges
// are attached by registerEngineMetrics / registerTenantMetrics.
func (s *Server) newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		reg:         reg,
		httpLatency: make(map[string]*obs.Histogram),
		wireDecode: reg.Histogram("gsketch_wire_frame_decode_duration_seconds",
			"Time parsing one wire frame payload into records (network wait excluded).", nil),
		swap: reg.Histogram("gsketch_adapt_swap_duration_seconds",
			"Build+rotate duration of adaptive repartition swaps.", nil),
		compact: reg.Histogram("gsketch_compact_duration_seconds",
			"Generation-fold duration of chain compactions.", nil),
	}
	for typ, name := range wireTypeNames {
		m.wireApply[typ] = reg.Histogram("gsketch_wire_frame_apply_duration_seconds",
			"Time applying one decoded wire frame against the backend; for an ingest frame, from its admission through its ack to the end of the connection's own fold of it.", nil,
			obs.Label{Key: "type", Value: name})
	}
	reg.GaugeFunc("gsketch_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return s.cfg.Now().Sub(s.start).Seconds() })
	reg.GaugeFunc("gsketch_ready",
		"1 when /readyz would answer 200, 0 otherwise.",
		func() float64 {
			if s.ready() == nil {
				return 1
			}
			return 0
		})
	return m
}

// routeHistogram resolves (registering on first use) the per-route
// HTTP latency histogram for a mux pattern.
func (m *serverMetrics) routeHistogram(pattern string) *obs.Histogram {
	h, ok := m.httpLatency[pattern]
	if !ok {
		h = m.reg.Histogram("gsketch_http_request_duration_seconds",
			"HTTP request latency by route.", nil,
			obs.Label{Key: "route", Value: pattern})
		m.httpLatency[pattern] = h
	}
	return h
}

// registerEngineMetrics attaches the single-node gauges: one
// EngineStats snapshot per scrape (via the prepare hook) feeds every
// gauge func, so a scrape costs one Stats() call, not one per series.
func (s *Server) registerEngineMetrics(eng *gsketch.Engine) {
	reg := s.metrics.reg
	var snap atomic.Pointer[gsketch.EngineStats]
	snap.Store(&gsketch.EngineStats{})
	reg.AddPrepare(func() {
		st := eng.Stats()
		snap.Store(&st)
	})
	gauge := func(name, help string, f func(*gsketch.EngineStats) float64) {
		reg.GaugeFunc(name, help, func() float64 { return f(snap.Load()) })
	}
	gauge("gsketch_engine_stream_total", "Stream volume folded into the estimator.",
		func(st *gsketch.EngineStats) float64 { return float64(st.StreamTotal) })
	gauge("gsketch_engine_partitions", "Serving estimator partition count.",
		func(st *gsketch.EngineStats) float64 { return float64(st.Partitions) })
	gauge("gsketch_engine_memory_bytes", "Estimator counter footprint in bytes.",
		func(st *gsketch.EngineStats) float64 { return float64(st.MemoryBytes) })
	gauge("gsketch_engine_generations", "Sketch generations serving reads.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt != nil {
				return float64(st.Adapt.Generations)
			}
			return 1
		})
	gauge("gsketch_ingest_queue_depth", "Batches waiting in the ingest queue, which HTTP ingest feeds; a wire connection folds its own frames and never enters it.",
		func(st *gsketch.EngineStats) float64 {
			if st.Ingest == nil {
				return 0
			}
			return float64(st.Ingest.QueueDepth)
		})
	gauge("gsketch_ingest_queue_cap", "Ingest queue bound (HTTP ingest starts shedding at capacity).",
		func(st *gsketch.EngineStats) float64 {
			if st.Ingest == nil {
				return 0
			}
			return float64(st.Ingest.QueueCap)
		})
	reg.CounterFunc("gsketch_ingest_sheds_total",
		"Load-shedding events: non-blocking pushes (HTTP ingest) refused on a full queue; an engine never sheds a wire frame.",
		func() int64 {
			if st := snap.Load(); st.Ingest != nil {
				return st.Ingest.Sheds
			}
			return 0
		})
	gauge("gsketch_adapt_drift_workload_divergence", "Live-vs-baseline workload divergence.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt == nil {
				return 0
			}
			return st.Adapt.Drift.WorkloadDivergence
		})
	gauge("gsketch_adapt_drift_outlier_share", "Outlier share of head reads since last swap.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt == nil {
				return 0
			}
			return st.Adapt.Drift.OutlierShare
		})
	reg.CounterFunc("gsketch_adapt_repartitions_total",
		"Completed repartition swaps.",
		func() int64 {
			if st := snap.Load(); st.Adapt != nil {
				return st.Adapt.Repartitions
			}
			return 0
		})
	// Generation-lifecycle gauges: chain residency and disk tiering. They
	// read zero on non-adaptive engines, like the drift gauges above.
	gauge("gsketch_engine_generations_resident", "Generations with counters in RAM.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt == nil {
				return 1
			}
			return float64(st.Adapt.ResidentGenerations)
		})
	gauge("gsketch_engine_generations_tiered", "Frozen generations with a disk-tier copy.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt == nil {
				return 0
			}
			return float64(st.Adapt.TieredGenerations)
		})
	gauge("gsketch_engine_tiered_bytes", "Counter footprint spilled off RAM to the disk tier.",
		func(st *gsketch.EngineStats) float64 {
			if st.Adapt == nil {
				return 0
			}
			return float64(st.Adapt.TieredBytes)
		})
	reg.CounterFunc("gsketch_compactions_total",
		"Completed generation folds (manual, policy loop, cap pressure).",
		func() int64 {
			if st := snap.Load(); st.Adapt != nil {
				return st.Adapt.Compactions
			}
			return 0
		})
	// Feed the swap- and compact-duration histograms from the engine's
	// observer hooks, covering manual requests and background loops alike.
	eng.SetSwapObserver(s.metrics.swap.ObserveDuration)
	eng.SetCompactObserver(s.metrics.compact.ObserveDuration)
}

// registerTenantMetrics attaches the multi-tenant gauges: registry
// aggregates, one labeled series set per tenant (tenants come and go,
// so the per-tenant series are dynamic — GaugeSet/CounterSet produce
// the whole set from the scrape-time snapshot), and the lifecycle
// latency histograms fed by the registry's observer hooks. One
// RegistryStats+List snapshot per scrape feeds every series.
func (s *Server) registerTenantMetrics(tr *tenant.Registry) {
	reg := s.metrics.reg
	var stats atomic.Pointer[tenant.Stats]
	var infos atomic.Pointer[[]tenant.Info]
	stats.Store(&tenant.Stats{})
	infos.Store(&[]tenant.Info{})
	reg.AddPrepare(func() {
		st := tr.RegistryStats()
		stats.Store(&st)
		in := tr.List()
		infos.Store(&in)
	})
	reg.GaugeFunc("gsketch_tenants", "Registered tenants.",
		func() float64 { return float64(stats.Load().Tenants) })
	reg.GaugeFunc("gsketch_tenants_resident", "Tenants with a live engine.",
		func() float64 { return float64(stats.Load().Resident) })
	reg.CounterFunc("gsketch_tenant_evictions_total",
		"Cold tenants snapshotted to disk and closed under the LRU cap.",
		func() int64 { return stats.Load().Evictions })
	reg.CounterFunc("gsketch_tenant_reopens_total",
		"Evicted tenants reopened from snapshot on access.",
		func() int64 { return stats.Load().Reopens })

	tenantSet := func(f func(*tenant.Info) float64) func() []obs.SetSample {
		return func() []obs.SetSample {
			in := *infos.Load()
			out := make([]obs.SetSample, len(in))
			for i := range in {
				out[i] = obs.SetSample{
					Labels: []obs.Label{{Key: "tenant", Value: in[i].Name}},
					Value:  f(&in[i]),
				}
			}
			return out
		}
	}
	reg.GaugeSet("gsketch_tenant_resident", "1 when the tenant's engine is live, 0 while evicted.",
		tenantSet(func(in *tenant.Info) float64 {
			if in.Resident {
				return 1
			}
			return 0
		}))
	reg.GaugeSet("gsketch_tenant_stream_total", "Tenant stream volume (0 while evicted; state is on disk).",
		tenantSet(func(in *tenant.Info) float64 { return float64(in.StreamTotal) }))
	reg.CounterSet("gsketch_tenant_edges_accepted_total", "Edges accepted into the tenant's pipeline.",
		tenantSet(func(in *tenant.Info) float64 { return float64(in.EdgesAccepted) }))
	reg.CounterSet("gsketch_tenant_queries_total", "Edge queries answered for the tenant.",
		tenantSet(func(in *tenant.Info) float64 { return float64(in.Queries) }))
	reg.CounterSet("gsketch_tenant_rate_limited_total", "Ingests cut short by the tenant's token bucket.",
		tenantSet(func(in *tenant.Info) float64 { return float64(in.RateLimited) }))

	reopenHist := reg.Histogram("gsketch_tenant_reopen_duration_seconds",
		"Engine open-on-access latency for evicted tenants.", nil)
	evictHist := reg.Histogram("gsketch_tenant_evict_duration_seconds",
		"Snapshot-to-disk eviction latency.", nil)
	tr.AddObservers(reopenHist.ObserveDuration, evictHist.ObserveDuration)
}
