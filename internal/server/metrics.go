package server

import (
	"sync/atomic"

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

// newServerMetrics builds the latency histograms both backends share;
// the request counters (newCounters) and the gauge rows (registerGauges)
// join them in New.
func newServerMetrics() *serverMetrics {
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

// registerTenantMetrics attaches what a tenant registry serves on
// /metrics beyond its gauge rows: one labeled series set per tenant
// (tenants come and go, so GaugeSet/CounterSet produce the whole set from
// one List snapshot per scrape) and the lifecycle latency histograms fed
// by the registry's observer hooks.
func (s *Server) registerTenantMetrics(tr *tenant.Registry) {
	reg := s.metrics.reg
	var infos atomic.Pointer[[]tenant.Info]
	reg.AddPrepare(func() {
		in := tr.List()
		infos.Store(&in)
	})

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
