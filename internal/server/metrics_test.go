package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// scrapeMetrics fetches and parses GET /metrics, failing the test on
// any exposition-format violation the parser can detect.
func scrapeMetrics(t *testing.T, baseURL string) []obs.Family {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	fams, err := obs.ParseFamilies(resp.Body)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	return fams
}

func familyValue(t *testing.T, fams []obs.Family, name string) float64 {
	t.Helper()
	for _, f := range fams {
		if f.Name == name {
			if len(f.Samples) != 1 {
				t.Fatalf("%s has %d samples, want 1", name, len(f.Samples))
			}
			return f.Samples[0].Value
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestSnapshotAgeOneClock: with a test clock on the server and the engine
// on the wall clock, snapshot_age_seconds subtracts two readings of the
// server's clock — -1 before the first snapshot, 0 at a save, the clock's
// advance after it — and /stats and /metrics agree on it.
func TestSnapshotAgeOneClock(t *testing.T) {
	var clock atomic.Int64
	clock.Store(1_000_000) // unix seconds: decades before the engine's clock
	edges := testStream(3000, 23)
	eng := testEngine(t, buildTestGSketch(t, edges[:1000]),
		gsketch.WithSnapshotFile(filepath.Join(t.TempDir(), "snap.gsk")))
	_, ts := newTestServer(t, Config{Engine: eng, Now: func() time.Time { return time.Unix(clock.Load(), 0) }})
	ingestAll(t, ts.URL, edges)

	age := func(want float64) {
		t.Helper()
		st, _ := getStats(t, ts.URL)["snapshot_age_seconds"].(float64)
		met := familyValue(t, scrapeMetrics(t, ts.URL), "gsketch_snapshot_age_seconds")
		if st != want || met != want {
			t.Fatalf("snapshot age: /stats %v, /metrics %v, want %v", st, met, want)
		}
	}
	age(-1)
	resp, err := http.Post(ts.URL+"/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot save: %d", resp.StatusCode)
	}
	age(0)
	clock.Add(90)
	age(90)
}

// TestMetricsExposition drives the engine backend through HTTP and wire
// traffic and asserts GET /metrics renders parse-valid Prometheus text
// exposition whose counters agree with /stats and whose histograms saw
// the traffic.
func TestMetricsExposition(t *testing.T) {
	edges := testStream(3000, 21)
	_, baseURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges[:1000]))})

	if code, _ := postIngest(t, baseURL, edges, true); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	qbody := `{"queries":[{"src":1,"dst":101},{"src":2,"dst":102}]}`
	qresp, err := http.Post(baseURL+"/query", "application/json", strings.NewReader(qbody))
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	// One wire ingest frame so the wire decode histogram has data; the
	// ack comes after the frame is decoded and counted.
	if acc, rej := dialWire(t, wireAddr).ingestFrame(t, edges[:64]); acc != 64 || rej != 0 {
		t.Fatalf("wire ack (%d, %d), want (64, 0)", acc, rej)
	}

	fams := scrapeMetrics(t, baseURL)

	if got := familyValue(t, fams, "gsketch_ingest_requests_total"); got != 2 {
		t.Errorf("ingest_requests_total = %v, want 2", got)
	}
	if got := familyValue(t, fams, "gsketch_edges_accepted_total"); got != float64(len(edges)+64) {
		t.Errorf("edges_accepted_total = %v, want %d", got, len(edges)+64)
	}
	if got := familyValue(t, fams, "gsketch_queries_answered_total"); got != 2 {
		t.Errorf("queries_answered_total = %v, want 2", got)
	}
	if got := familyValue(t, fams, "gsketch_engine_stream_total"); got <= 0 {
		t.Errorf("engine_stream_total = %v, want > 0", got)
	}
	if got := familyValue(t, fams, "gsketch_ready"); got != 1 {
		t.Errorf("gsketch_ready = %v, want 1", got)
	}

	// Per-route HTTP latency: the ingest route saw the HTTP request.
	h, err := obs.FindHistogram(fams, "gsketch_http_request_duration_seconds",
		map[string]string{"route": "POST /ingest"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 1 {
		t.Errorf("ingest route histogram count = %d, want 1", h.Count)
	}
	// Wire decode latency saw the frame.
	wd, err := obs.FindHistogram(fams, "gsketch_wire_frame_decode_duration_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if wd.Count != 1 {
		t.Errorf("wire decode histogram count = %d, want 1", wd.Count)
	}

	// /stats derives from the same registry: its counter keys must agree
	// with the exposition (and keep their PR-era names).
	sresp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	stats := string(raw)
	for key, want := range map[string]float64{
		"ingest_requests": 2,
		"edges_accepted":  float64(len(edges) + 64),
		"query_requests":  1,
		"wire_frames":     1,
	} {
		if !strings.Contains(stats, fmt.Sprintf("%q:%d", key, int64(want))) {
			t.Errorf("/stats missing %q:%d in %s", key, int64(want), stats)
		}
	}
}

// TestMetricsQuantilesBracketInjectedLatencies injects known durations
// straight into a registry histogram and asserts the scraped quantiles
// bracket them — the end-to-end path of the bench's server-side view.
func TestMetricsQuantilesBracketInjectedLatencies(t *testing.T) {
	srv, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(500, 3)))})
	h := srv.Metrics().Histogram("test_injected_seconds", "injected", nil)
	for i := 0; i < 98; i++ {
		h.ObserveDuration(3 * time.Millisecond)
	}
	h.ObserveDuration(600 * time.Millisecond)
	h.ObserveDuration(700 * time.Millisecond)

	fams := scrapeMetrics(t, ts.URL)
	snap, err := obs.FindHistogram(fams, "test_injected_seconds", nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 100 {
		t.Fatalf("scraped count = %d, want 100", snap.Count)
	}
	if p50 := snap.Quantile(0.50); p50 < 0.0025 || p50 > 0.005 {
		t.Errorf("p50 = %v, want within (0.0025, 0.005]", p50)
	}
	if p99 := snap.Quantile(0.99); p99 < 0.5 || p99 > 1.0 {
		t.Errorf("p99 = %v, want within (0.5, 1.0]", p99)
	}
}

// TestReadyzFlipsDuringRestore streams a snapshot restore body through
// a pipe, holding the swap window open: /readyz must answer 503 while
// the restore is in flight and 200 again after it lands, while
// /healthz stays 200 throughout (alive ≠ ready).
func TestReadyzFlipsDuringRestore(t *testing.T) {
	srv, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(2000, 7)))})

	getCode := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := getCode("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before restore: %d", code)
	}

	var snap bytes.Buffer
	if _, err := srv.Engine().Save(&snap); err != nil {
		t.Fatal(err)
	}

	pr, pw := io.Pipe()
	restored := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/snapshot/restore", "application/octet-stream", pr)
		if err != nil {
			restored <- -1
			return
		}
		resp.Body.Close()
		restored <- resp.StatusCode
	}()

	// The server is blocked reading the body inside the swap window.
	deadline := time.Now().Add(5 * time.Second)
	for getCode("/readyz") != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during restore")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := getCode("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during restore: %d, want 200", code)
	}

	if _, err := pw.Write(snap.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if code := <-restored; code != http.StatusOK {
		t.Fatalf("restore: %d", code)
	}
	if code := getCode("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after restore: %d", code)
	}
}

// TestTenantMetricsExpositionParses scrapes a live multi-tenant server:
// its route labels hold braces (route="POST /t/{tenant}/ingest"), which the
// parser must not take for the end of the label set.
func TestTenantMetricsExpositionParses(t *testing.T) {
	_, baseURL, _ := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "acme", "")
	resp, err := http.Post(baseURL+"/t/acme/ingest?sync=1", "application/x-ndjson", ndjsonBody(testStream(200, 3)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant ingest: %d", resp.StatusCode)
	}

	fams := scrapeMetrics(t, baseURL)
	const route = "POST /t/{tenant}/ingest"
	h, err := obs.FindHistogram(fams, "gsketch_http_request_duration_seconds", map[string]string{"route": route})
	if err != nil {
		t.Fatal(err)
	}
	if h.Count != 1 {
		t.Fatalf("route %q saw %d requests, want 1", route, h.Count)
	}
}

// TestInstrumentedWireConnAllocs guards the TCP wire pipeline the same
// way alloc_test guards the HTTP path: per-frame instrumentation (two
// histograms + byte counters) must not add allocations.
func TestWireHistogramObserveIsAllocFree(t *testing.T) {
	srv, _ := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(500, 5)))})
	start := time.Now()
	if n := testing.AllocsPerRun(500, func() {
		srv.metrics.wireDecode.ObserveSince(start)
		srv.metrics.wireApply[wire.TypeIngest].ObserveSince(start)
		srv.stats.wireBytesIn.Add(64)
	}); n != 0 {
		t.Fatalf("wire instrumentation allocates %v per frame, want 0", n)
	}
}

// TestWindowedEngineReportsGenerations: an engine whose generations are
// windows reports how many it holds in Stats, /stats and /metrics, as an
// adaptive engine does; with no manager, repartitions and drift read zero.
func TestWindowedEngineReportsGenerations(t *testing.T) {
	eng, err := gsketch.Open(testSketchConfig(), gsketch.WithGlobal(),
		gsketch.WithWindows(gsketch.WindowConfig{Span: 10, SampleSize: 64}))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng})
	if err := eng.Ingest(context.Background(), stream.Edge{Src: 1, Dst: 2, Weight: 1, Time: 1},
		stream.Edge{Src: 1, Dst: 2, Weight: 1, Time: 25}); err != nil {
		t.Fatal(err)
	}

	a := eng.Stats().Adapt
	if a == nil || a.Generations != 2 || a.Repartitions != 0 || a.Drift != (gsketch.Drift{}) {
		t.Fatalf("Stats().Adapt = %+v, want 2 generations, no repartition and zero drift", a)
	}
	if got := getStats(t, ts.URL)["generations"]; got != float64(2) {
		t.Fatalf("/stats generations = %v, want 2", got)
	}
	if got := familyValue(t, scrapeMetrics(t, ts.URL), "gsketch_engine_generations"); got != 2 {
		t.Fatalf("gsketch_engine_generations = %v, want 2", got)
	}
}

// gaugeShape is one quiescent server the gauge table is read on.
type gaugeShape struct {
	name string
	srv  *Server
	url  string
}

// gaugeShapes builds the four server shapes whose gauges differ: a plain
// engine; an adaptive engine with tiering, repartitioned twice so that its
// oldest frozen generation is spilled, with a saved snapshot; a windowed
// engine; and a tenant registry. Nothing is in flight when they return,
// and each server's clock stands still, so uptime_seconds and
// snapshot_age_seconds read the same on /stats and on a later scrape.
func gaugeShapes(t *testing.T) []gaugeShape {
	t.Helper()
	now := time.Now().Add(time.Minute)
	edges := testStream(6000, 41)
	qs := make([]core.EdgeQuery, 32)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	var shapes []gaugeShape
	var wireAddr string // the last shape's wire listener
	serve := func(name string, cfg Config) string {
		cfg.Now = func() time.Time { return now }
		srv, url, addr := newWireServer(t, cfg)
		shapes = append(shapes, gaugeShape{name, srv, url})
		wireAddr = addr
		return url
	}
	post := func(url string) {
		t.Helper()
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", url, resp.StatusCode, body)
		}
	}

	url := serve("engine", Config{Engine: testEngine(t, buildTestGSketch(t, edges[:1000]))})
	ingestAll(t, url, edges[:3000])
	queryBatch(t, url, qs)
	// One wire query frame, so that the wire counters, wire_poller_wakes
	// among them, read above zero; its reply's bytes are counted once the
	// write returns.
	wc := dialWire(t, wireAddr)
	wc.queryWire(t, qs)
	waitFor(t, "the wire reply's bytes to be counted", func() bool {
		return shapes[0].srv.stats.wireBytesOut.Value() == int64(wc.read)
	})

	dir := t.TempDir()
	url = serve("adaptive", Config{Engine: testEngine(t, newTestChain(t, edges[:1000]),
		gsketch.WithTiering(filepath.Join(dir, "tier"), 1),
		gsketch.WithSnapshotFile(filepath.Join(dir, "chain.gsk")))})
	// A query reloads a spilled generation, so the last one comes before
	// the repartition that spills. The first ingest is synchronous: the
	// repartition right behind it must find its edges in the reservoir.
	if code, _ := postIngest(t, url, edges[:2000], true); code != http.StatusOK {
		t.Fatalf("sync ingest: %d", code)
	}
	post(url + "/repartition")
	ingestAll(t, url, edges[2000:4000])
	queryBatch(t, url, qs)
	post(url + "/repartition")
	ingestAll(t, url, edges[4000:])
	post(url + "/snapshot/save")
	if a := shapes[1].srv.Engine().Stats().Adapt; a.Generations != 3 || a.TieredGenerations != 1 || a.ResidentGenerations != 2 {
		t.Fatalf("adaptive shape: %+v, want 3 generations, 1 of them spilled", a)
	}

	win, err := gsketch.Open(testSketchConfig(), gsketch.WithGlobal(), gsketch.WithIngest(ingest.Config{}),
		gsketch.WithWindows(gsketch.WindowConfig{Span: 1000, SampleSize: 64}))
	if err != nil {
		t.Fatal(err)
	}
	url = serve("windowed", Config{Engine: win})
	ingestAll(t, url, edges[:2500])
	queryBatch(t, url, qs)

	reg, err := tenant.New(tenant.Config{Dir: t.TempDir(), Sketch: gsketch.Config{TotalBytes: 32 << 10, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	url = serve("tenants", Config{Tenants: reg})
	createTenant(t, url, "acme", "")
	ingestAll(t, url+"/t/acme", edges[:2000])
	queryBatch(t, url+"/t/acme", qs)
	return shapes
}

// Every /stats key and /metrics family the server served before the gauge
// table, per shape; none of them may go missing.
const (
	engineStatsKeys = `batches_applied compact_requests edges_accepted edges_applied edges_rejected
		inflight ingest_requests memory_bytes partitions queries_answered query_requests queue_cap
		queue_depth repartition_requests route_read_hits route_read_outlier route_read_outlier_share
		route_write_hits route_write_outlier route_write_outlier_share sheds snapshot_age_seconds
		snapshots_restored snapshots_saved stream_total uptime_seconds window_query_requests
		wire_bytes_in wire_bytes_out wire_decode_errors wire_frames`
	workloadStatsKeys = `workload_capacity workload_sample workload_seen`
	chainStatsKeys    = `adapt_data_sample compacted_from compactions drift_outlier_share
		drift_workload_divergence generations repartitions resident_generations tiered_bytes
		tiered_generations`
	engineFamilies = `gsketch_adapt_drift_outlier_share gsketch_adapt_drift_workload_divergence
		gsketch_adapt_repartitions_total gsketch_adapt_swap_duration_seconds
		gsketch_compact_duration_seconds gsketch_compact_requests_total gsketch_compactions_total
		gsketch_edges_accepted_total gsketch_edges_rejected_total gsketch_engine_generations
		gsketch_engine_generations_resident gsketch_engine_generations_tiered
		gsketch_engine_memory_bytes gsketch_engine_partitions gsketch_engine_stream_total
		gsketch_engine_tiered_bytes gsketch_http_request_duration_seconds gsketch_ingest_queue_cap
		gsketch_ingest_queue_depth gsketch_ingest_requests_total gsketch_ingest_sheds_total
		gsketch_queries_answered_total gsketch_query_requests_total gsketch_ready
		gsketch_repartition_requests_total gsketch_snapshots_restored_total
		gsketch_snapshots_saved_total gsketch_uptime_seconds gsketch_window_query_requests_total
		gsketch_wire_bytes_in_total gsketch_wire_bytes_out_total gsketch_wire_decode_errors_total
		gsketch_wire_frame_apply_duration_seconds gsketch_wire_frame_decode_duration_seconds
		gsketch_wire_frames_total`
	tenantStatsKeys = `compact_requests edges_accepted edges_rejected ingest_requests
		queries_answered query_requests repartition_requests snapshots_restored snapshots_saved
		tenant_evictions tenant_reopens tenants tenants_resident uptime_seconds
		window_query_requests wire_bytes_in wire_bytes_out wire_decode_errors wire_frames`
	tenantFamilies = `gsketch_adapt_swap_duration_seconds gsketch_compact_duration_seconds
		gsketch_compact_requests_total gsketch_edges_accepted_total gsketch_edges_rejected_total
		gsketch_http_request_duration_seconds gsketch_ingest_requests_total
		gsketch_queries_answered_total gsketch_query_requests_total gsketch_ready
		gsketch_repartition_requests_total gsketch_snapshots_restored_total
		gsketch_snapshots_saved_total gsketch_tenant_edges_accepted_total
		gsketch_tenant_evict_duration_seconds gsketch_tenant_evictions_total
		gsketch_tenant_queries_total gsketch_tenant_rate_limited_total
		gsketch_tenant_reopen_duration_seconds gsketch_tenant_reopens_total
		gsketch_tenant_resident gsketch_tenant_stream_total gsketch_tenants
		gsketch_tenants_resident gsketch_uptime_seconds gsketch_window_query_requests_total
		gsketch_wire_bytes_in_total gsketch_wire_bytes_out_total gsketch_wire_decode_errors_total
		gsketch_wire_frame_apply_duration_seconds gsketch_wire_frame_decode_duration_seconds
		gsketch_wire_frames_total`
)

// servedBefore lists, per shape, what the server served before the gauge
// table: /stats keys and /metrics families.
var servedBefore = map[string][2]string{
	"engine":   {engineStatsKeys + " " + workloadStatsKeys, engineFamilies},
	"adaptive": {engineStatsKeys + " " + workloadStatsKeys + " " + chainStatsKeys, engineFamilies},
	"windowed": {engineStatsKeys + " " + chainStatsKeys, engineFamilies},
	"tenants":  {tenantStatsKeys, tenantFamilies},
}

// TestGaugeTableAgreesAcrossEndpoints reads every gauge row and every
// counter of four quiescent server shapes on both endpoints: /stats must
// render each with the value its /metrics sample carries, integral rows as
// JSON integers, and both endpoints must still serve everything they
// served before the table.
func TestGaugeTableAgreesAcrossEndpoints(t *testing.T) {
	for _, sh := range gaugeShapes(t) {
		resp, err := http.Get(sh.url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats map[string]any
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		err = dec.Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fams := scrapeMetrics(t, sh.url)
		served := make(map[string]string, len(fams)) // family → TYPE
		for _, f := range fams {
			served[f.Name] = f.Type
		}

		for _, g := range sh.srv.gauges {
			if g.name == "" {
				if _, ok := stats[g.key].([]any); !ok {
					t.Errorf("%s: /stats %q = %v, want a list", sh.name, g.key, stats[g.key])
				}
				continue
			}
			n, ok := stats[g.key].(json.Number)
			if !ok {
				t.Errorf("%s: /stats %q = %v, want a number", sh.name, g.key, stats[g.key])
				continue
			}
			if g.i != nil {
				if _, err := n.Int64(); err != nil {
					t.Errorf("%s: /stats %q = %s, want a JSON integer", sh.name, g.key, n)
				}
			}
			got, err := n.Float64()
			if err != nil {
				t.Fatal(err)
			}
			if want := familyValue(t, fams, g.name); got != want {
				t.Errorf("%s: /stats %q = %v, /metrics %s = %v", sh.name, g.key, got, g.name, want)
			}
			if typ := served[g.name]; (typ == "counter") != g.counter || g.counter && !strings.HasSuffix(g.name, "_total") {
				t.Errorf("%s: %s is a %s, and its row's counter flag is %v", sh.name, g.name, typ, g.counter)
			}
		}

		// Each counter of the one counter table is its /stats key on one
		// endpoint and gsketch_<key>_total on the other.
		for _, kc := range sh.srv.stats.byKey {
			name := "gsketch_" + kc.key + "_total"
			n, ok := stats[kc.key].(json.Number)
			if !ok || served[name] != "counter" {
				t.Errorf("%s: /stats %q = %v and /metrics %s is a %q, want a number and a counter", sh.name, kc.key, stats[kc.key], name, served[name])
				continue
			}
			if got, err := n.Int64(); err != nil || float64(got) != familyValue(t, fams, name) {
				t.Errorf("%s: /stats %q = %s, /metrics %s = %v", sh.name, kc.key, n, name, familyValue(t, fams, name))
			}
		}
		if sh.name == "engine" && stats["wire_poller_wakes"] != json.Number("1") {
			t.Errorf("engine: /stats wire_poller_wakes = %v after one query frame on a fresh connection, want 1", stats["wire_poller_wakes"])
		}

		before := servedBefore[sh.name]
		for _, key := range strings.Fields(before[0]) {
			if _, ok := stats[key]; !ok {
				t.Errorf("%s: /stats no longer serves %q", sh.name, key)
			}
		}
		for _, name := range strings.Fields(before[1]) {
			if served[name] == "" {
				t.Errorf("%s: /metrics no longer serves %s", sh.name, name)
			}
		}
	}
}
