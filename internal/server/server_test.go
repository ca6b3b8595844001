package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// gateEstimator blocks UpdateBatch on a gate so queue-full states are
// deterministic.
type gateEstimator struct {
	gate  chan struct{}
	edges atomic.Int64
}

func (g *gateEstimator) UpdateBatch(es []stream.Edge) { <-g.gate; g.edges.Add(int64(len(es))) }
func (g *gateEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	return make([]core.Result, len(qs))
}
func (g *gateEstimator) Count() int64     { return g.edges.Load() }
func (g *gateEstimator) MemoryBytes() int { return 0 }

func getStats(t *testing.T, baseURL string) map[string]any {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

func waitFor(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never converged", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func postIngest(t *testing.T, baseURL string, edges []stream.Edge, sync bool) (int, ingestResponse) {
	t.Helper()
	url := baseURL + "/ingest"
	if sync {
		url += "?sync=1"
	}
	resp, err := http.Post(url, "application/x-ndjson", ndjsonBody(edges))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir ingestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ir
}

// TestIngestBackpressure429 drives the pipeline into a deterministic
// queue-full state and checks the 429 mapping: typed shed-load with the
// accepted prefix, never a blocked handler.
func TestIngestBackpressure429(t *testing.T) {
	dest := &gateEstimator{gate: make(chan struct{})}
	srv, ts := newTestServer(t, Config{
		Engine: testEngine(t, dest,
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 4, QueueDepth: 1})),
	})
	// While the gate is closed the generic-fallback worker holds the
	// estimator's write lock, so state polling goes straight to the
	// ingestor counters (the /stats gauges that read the estimator would
	// block, correctly, until the batch applies).
	ingStats := func() gsketch.IngestStats { return *srv.Engine().IngestStats() }
	edges := testStream(16, 3)

	// Batch 1 → held by the gated worker.
	if code, ir := postIngest(t, ts.URL, edges[:4], false); code != http.StatusOK || ir.Accepted != 4 {
		t.Fatalf("first batch: code %d, %+v", code, ir)
	}
	waitFor(t, "worker pickup", func() bool {
		st := ingStats()
		return st.QueueDepth == 0 && st.Inflight == 1
	})
	// Batch 2 → fills the depth-1 queue.
	if code, ir := postIngest(t, ts.URL, edges[4:8], false); code != http.StatusOK || ir.Accepted != 4 {
		t.Fatalf("second batch: code %d, %+v", code, ir)
	}
	// Batch 3+4 → the queue is full, so the whole body is shed with 429:
	// nothing is parked beside a full queue.
	code, ir := postIngest(t, ts.URL, edges[8:16], false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429 (%+v)", code, ir)
	}
	if ir.Accepted != 0 || ir.Rejected != 8 {
		t.Fatalf("accepted/rejected = %d/%d, want 0/8", ir.Accepted, ir.Rejected)
	}

	// Open the gate and retry the shed suffix one 4-edge batch at a time,
	// each after a drain, so every retry meets an empty queue: a two-batch
	// post could have its second batch shed again while the worker
	// drains, counting its edges as rejected twice.
	close(dest.gate)
	for rest := edges[8:16]; len(rest) > 0; rest = rest[4:] {
		drainEngine(t, srv.Engine())
		if code, ir := postIngest(t, ts.URL, rest[:4], true); code != http.StatusOK || ir.Accepted != 4 {
			t.Fatalf("retry: code %d, %+v", code, ir)
		}
	}
	if got := dest.Count(); got != 16 {
		t.Fatalf("edges applied = %d, want 16", got)
	}
	m := getStats(t, ts.URL)
	if m["edges_rejected"].(float64) != 8 || m["edges_accepted"].(float64) != 16 {
		t.Fatalf("counter mismatch: %v", m)
	}
}

// TestGracefulShutdownDrains checks Shutdown's drain-then-stop contract:
// edges accepted (but unflushed) before Shutdown are all applied, the
// final snapshot covers them, and post-shutdown requests fail typed.
func TestGracefulShutdownDrains(t *testing.T) {
	snap := t.TempDir() + "/final.gsk"
	edges := testStream(10_000, 5)
	srv, ts := newTestServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, edges[:2000]),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 256, QueueDepth: 4}),
			gsketch.WithSnapshotFile(snap), gsketch.WithSnapshotOnClose()),
	})
	ingestAll(t, ts.URL, edges)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	var want int64
	for _, e := range edges {
		want += e.Weight
	}
	if got := srv.Engine().Estimator().Count(); got != want {
		t.Fatalf("drained Count = %d, want %d", got, want)
	}

	// The shutdown snapshot must load and carry the full stream total.
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gens, _, err := core.ReadChainMeta(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("snapshot carries %d generations, want 1", len(gens))
	}
	if gens[0].Count() != want {
		t.Fatalf("snapshot Count = %d, want %d", gens[0].Count(), want)
	}

	// Post-shutdown: health is 503, ingest reports the closed pipeline.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: %d", resp.StatusCode)
	}
	if code, _ := postIngest(t, ts.URL, edges[:4], false); code != http.StatusServiceUnavailable {
		t.Fatalf("ingest after shutdown: %d", code)
	}
	// Second Close is a no-op.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWindowQueryEndpoint checks the windowed read path: served answers
// match the engine's own QueryWindow, and a snapshot streamed from
// GET /snapshot restores through POST /snapshot/restore with every window,
// answering the same afterwards.
func TestWindowQueryEndpoint(t *testing.T) {
	edges := testStream(8000, 13) // Time = index → 8 windows of span 1000
	eng := testEngine(t, buildTestGSketch(t, edges[:1000]),
		gsketch.WithWindows(gsketch.WindowConfig{Span: 1000, SampleSize: 512}))
	_, ts := newTestServer(t, Config{Engine: eng})
	for lo := 0; lo < len(edges); lo += 1000 {
		if code, _ := postIngest(t, ts.URL, edges[lo:lo+1000], true); code != http.StatusOK {
			t.Fatalf("ingest window chunk: %d", code)
		}
	}
	if got := eng.Generations(); got != 8 {
		t.Fatalf("%d windows, want 8", got)
	}

	qs := make([]queryJSON, 200)
	cqs := make([]core.EdgeQuery, 200)
	for i := range qs {
		qs[i] = queryJSON{Src: edges[i].Src, Dst: edges[i].Dst}
		cqs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	served := func() []float64 {
		t.Helper()
		body, _ := json.Marshal(windowQueryRequest{Queries: qs, T1: 500, T2: 6500})
		resp, err := http.Post(ts.URL+"/query/window", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("window query: %d: %s", resp.StatusCode, raw)
		}
		var wr windowQueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			t.Fatal(err)
		}
		return wr.Values
	}
	want, err := eng.QueryWindow(cqs, 500, 6500)
	if err != nil {
		t.Fatal(err)
	}
	if got := served(); !slices.Equal(got, want) {
		t.Fatalf("served window values %v, direct %v", got, want)
	}

	snap, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(snap.Body)
	snap.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	rr, err := http.Post(ts.URL+"/snapshot/restore", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("restore of a windowed snapshot: %d, want 200", rr.StatusCode)
	}
	if got := eng.Generations(); got != 8 {
		t.Fatalf("%d windows after restore, want 8", got)
	}
	if got := served(); !slices.Equal(got, want) {
		t.Fatalf("window values after restore %v, before %v", got, want)
	}
}

// TestWindowFarFutureEdge: one edge a million spans past the current
// window — one NDJSON "time" field away for any client — is a 200 that
// opens one more window, not a million of them.
func TestWindowFarFutureEdge(t *testing.T) {
	const span, gap = 60, 1_000_000
	edges := testStream(200, 41)
	eng := testEngine(t, buildTestGSketch(t, edges), gsketch.WithWindows(gsketch.WindowConfig{
		Span:       span,
		SampleSize: 1024,
	}))
	_, ts := newTestServer(t, Config{Engine: eng})
	far := edges[0]
	far.Time = span * gap
	for _, e := range []stream.Edge{edges[0], far} {
		if code, ir := postIngest(t, ts.URL, []stream.Edge{e}, true); code != http.StatusOK || ir.Accepted != 1 {
			t.Fatalf("ingest at t=%d: %d %+v", e.Time, code, ir)
		}
	}
	if got := eng.Generations(); got != 2 {
		t.Fatalf("engine holds %d windows, want 2", got)
	}
	body, _ := json.Marshal(windowQueryRequest{
		Queries: []queryJSON{{Src: far.Src, Dst: far.Dst}},
		T1:      far.Time, T2: far.Time + span - 1,
	})
	resp, err := http.Post(ts.URL+"/query/window", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wr windowQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("window query: %d, %v", resp.StatusCode, err)
	}
	if len(wr.Values) != 1 || wr.Values[0] < float64(far.Weight) {
		t.Fatalf("far window answers %v, below truth %d", wr.Values, far.Weight)
	}
}

// TestBadRequests covers the defensive error paths.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(1000, 17)))})

	post := func(path, ctype, body string) int {
		resp, err := http.Post(ts.URL+path, ctype, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/ingest", "application/x-ndjson", "{not json}\n"); code != http.StatusBadRequest {
		t.Fatalf("malformed ingest line: %d", code)
	}
	if code := post("/query", "application/json", `{"queries":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty query batch: %d", code)
	}
	if code := post("/query", "application/json", "]["); code != http.StatusBadRequest {
		t.Fatalf("malformed query body: %d", code)
	}
	if code := post("/snapshot/save", "application/json", "{}"); code != http.StatusBadRequest {
		t.Fatalf("save without path: %d", code)
	}
	// Without a configured snapshot path, request paths are refused
	// outright — no arbitrary-path writes or existence probes.
	if code := post("/snapshot/save", "application/json", `{"path":"/tmp/evil.gsk"}`); code != http.StatusForbidden {
		t.Fatalf("save to unconfined path: %d", code)
	}
	if code := post("/snapshot/restore", "application/json", `{"path":"/nonexistent/x.gsk"}`); code != http.StatusForbidden {
		t.Fatalf("restore from unconfined path: %d", code)
	}
	if code := post("/snapshot/restore", "application/octet-stream", "garbage"); code != http.StatusBadRequest {
		t.Fatalf("restore garbage: %d", code)
	}
	// No windows configured → no route.
	if code := post("/query/window", "application/json", `{"queries":[{"src":1,"dst":2}]}`); code != http.StatusNotFound {
		t.Fatalf("window query without store: %d", code)
	}
	// Method mismatch.
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest: %d", resp.StatusCode)
	}

	// GET /snapshot on an estimator without a serial form must be a clean
	// 500, never a 200 with an empty body the client would save.
	foreign := newGated()
	foreign.open()
	_, ts2 := newTestServer(t, Config{Engine: testEngine(t, foreign)})
	snapResp, err := http.Get(ts2.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer snapResp.Body.Close()
	if snapResp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /snapshot on a foreign estimator: %d, want 500", snapResp.StatusCode)
	}
}

// TestStatsShape checks the /stats payload carries both the request
// counters and the live gauges.
func TestStatsShape(t *testing.T) {
	edges := testStream(5000, 19)
	_, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges[:1000]))})
	if code, _ := postIngest(t, ts.URL, edges, true); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}
	queryBatch(t, ts.URL, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})

	m := getStats(t, ts.URL)
	for _, key := range []string{
		"uptime_seconds", "stream_total", "partitions", "memory_bytes",
		"edges_applied", "queue_depth", "queue_cap", "inflight",
		"ingest_requests", "edges_accepted", "query_requests", "queries_answered",
		"workload_seen", "snapshot_age_seconds",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("stats missing %q: %v", key, m)
		}
	}
	if m["edges_accepted"].(float64) != 5000 || m["queries_answered"].(float64) != 1 {
		t.Fatalf("counters off: %v", m)
	}
	if m["snapshot_age_seconds"].(float64) != -1 {
		t.Fatalf("snapshot age should be -1 before any snapshot: %v", m["snapshot_age_seconds"])
	}
	var healthy struct{ Status string }
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&healthy); err != nil || healthy.Status != "ok" {
		t.Fatalf("healthz: %v %v", healthy, err)
	}
}

// TestNewNeedsExactlyOneBackend: a server serves exactly one of an engine
// or a tenant registry. None, or both at once, is refused with an error
// naming both fields.
func TestNewNeedsExactlyOneBackend(t *testing.T) {
	sample := testStream(500, 3)
	eng := testEngine(t, buildTestGSketch(t, sample))
	t.Cleanup(func() { eng.Close() })
	reg, err := tenant.New(tenant.Config{Dir: t.TempDir(), Sketch: testSketchConfig()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"none", Config{}},
		{"engine+tenants", Config{Engine: eng, Tenants: reg}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := New(tc.cfg)
			if err == nil {
				srv.Close()
				t.Fatal("New accepted the configuration")
			}
			for _, field := range []string{"Engine", "Tenants"} {
				if !strings.Contains(err.Error(), field) {
					t.Errorf("error %q does not name Config.%s", err, field)
				}
			}
			if strings.Contains(err.Error(), "Estimator") {
				t.Errorf("error %q names a field Config does not have", err)
			}
		})
	}
}

// TestSyncParamDrainsOnlyWhenTrue is the ?sync= table of POST /ingest, the
// route that reads it: a value strconv.ParseBool reads as true drains the
// pipeline before the reply, an absent or false one does not, and any
// other is a 400 naming the parameter that ingests nothing. The estimator
// blocks every fold until the test opens its gate, so a reply that comes
// back with the gate closed did not drain, and a draining reply comes back
// only once the gate opens, with every edge applied. A wire frame posted
// there is refused with a 400 whatever ?sync= says: it takes no edge, and
// it does not wait for the fold of edges admitted before it. POST /query
// reads no ?sync= (a JSON query body carries its own sync field), so a wire
// query frame posted there is refused for its body whatever the URL says.
func TestSyncParamDrainsOnlyWhenTrue(t *testing.T) {
	edges := testStream(8, 5)
	routes := []struct {
		name, path, ctype string
		body              []byte
		// refused: the body is refused whatever ?sync= says. Such a row
		// admits the edges before the request and applies them only when
		// the gate opens, so a drain would have a fold to wait for.
		refused bool
	}{
		{"ndjson ingest", "/ingest", "application/x-ndjson", ndjsonBody(edges).Bytes(), false},
		{"wire ingest", "/ingest", wireContentType, wire.AppendIngest(nil, edges), true},
		{"wire query", "/query", wireContentType, wire.AppendQuery(nil, []core.EdgeQuery{{Src: 1, Dst: 2}}), true},
	}
	values := []struct {
		query string
		drain bool
		bad   bool
	}{
		{"", false, false},
		{"?sync=", false, false},
		{"?sync=0", false, false},
		{"?sync=false", false, false},
		{"?sync=F", false, false},
		{"?sync=1", true, false},
		{"?sync=true", true, false},
		{"?sync=TRUE", true, false},
		{"?sync=yes", false, true},
		{"?sync=2", false, true},
		{"?sync=on", false, true},
	}
	post := func(h http.Handler, target, ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
		req.Header.Set("Content-Type", ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, rt := range routes {
		for _, v := range values {
			drain := v.drain && !rt.refused
			badSync := v.bad && rt.path == "/ingest"
			t.Run(rt.name+"/"+v.query, func(t *testing.T) {
				dest := &gateEstimator{gate: make(chan struct{})}
				srv, err := New(Config{Engine: testEngine(t, dest,
					gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 1024}))})
				if err != nil {
					t.Fatal(err)
				}
				var held gsketch.Admission
				if rt.refused {
					if held, err = srv.Engine().Admit(edges); err != nil {
						t.Fatal(err)
					}
				}
				var once sync.Once
				open := func() { once.Do(func() { close(dest.gate); held.Apply() }) }
				t.Cleanup(func() { open(); srv.Close() })
				h := srv.Handler()
				replied := make(chan *httptest.ResponseRecorder, 1)
				go func() { replied <- post(h, rt.path+v.query, rt.ctype, rt.body) }()
				var rec *httptest.ResponseRecorder
				if drain {
					select {
					case rec = <-replied:
						t.Fatalf("replied %d before the fold: a draining request must wait for it", rec.Code)
					case <-time.After(50 * time.Millisecond):
					}
					open()
					rec = <-replied
					if got := dest.Count(); got != int64(len(edges)) {
						t.Fatalf("%d edges applied when the draining reply came, want %d", got, len(edges))
					}
				} else {
					select {
					case rec = <-replied:
					case <-time.After(5 * time.Second):
						t.Fatal("no reply with the fold blocked: only a true ?sync= may wait for it")
					}
					open()
				}
				switch {
				case badSync:
					if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "sync") {
						t.Fatalf("%d %q, want 400 naming sync", rec.Code, rec.Body)
					}
				case rt.refused:
					if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad_request") {
						t.Fatalf("%d %q, want 400 with a bad_request envelope", rec.Code, rec.Body)
					}
				case rec.Code != http.StatusOK:
					t.Fatalf("%d %q, want 200", rec.Code, rec.Body)
				}
				// Whatever the request or the preload admitted is applied by
				// the next drain; a refused request took no edge.
				if rec := post(h, "/ingest?sync=1", "application/x-ndjson", nil); rec.Code != http.StatusOK {
					t.Fatalf("flush: %d %s", rec.Code, rec.Body)
				}
				want := int64(len(edges))
				if badSync && !rt.refused {
					want = 0
				}
				if got := dest.Count(); got != want {
					t.Fatalf("%d edges applied after a flush, want %d", got, want)
				}
			})
		}
	}
}
