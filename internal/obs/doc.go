// Package obs is the serving stack's dependency-free observability
// kit: a metrics registry (counters, gauges, fixed-bucket latency
// histograms) that renders Prometheus text exposition format 0.0.4,
// plus component-scoped structured logging built on log/slog.
//
// Instruments are resolved once at registration and are lock-free and
// allocation-free to update afterwards — a histogram Observe is two
// atomic adds and a bucket-index binary search — so they can sit on the
// wire-protocol ingest hot path without moving the allocs-per-edge
// guards. Scrape-time collection (GaugeFunc/CounterFunc) runs under the
// scrape, never under ingest; AddPrepare hooks let many gauge funcs
// share one snapshot of an expensive stats call per scrape.
//
// Quantile derives p50/p99-style estimates by linear interpolation
// inside the crossing bucket, matching what Prometheus'
// histogram_quantile would compute from the exported buckets, so
// client-side and server-side latency views are comparable.
//
// ParseFamilies is the inverse of Registry.WriteTo — a small exposition
// parser the tests use to assert format validity (HELP/TYPE pairing,
// bucket monotonicity, le="+Inf" terminals) and to read scraped
// histograms back.
package obs
