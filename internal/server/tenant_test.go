package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// newTenantServer starts a multi-tenant server (HTTP + wire) over a
// fresh registry rooted in a temp dir.
func newTenantServer(t *testing.T, tcfg tenant.Config) (*Server, string, string) {
	t.Helper()
	if tcfg.Dir == "" {
		tcfg.Dir = t.TempDir()
	}
	if tcfg.Sketch.TotalBytes == 0 && tcfg.Sketch.TotalWidth == 0 {
		tcfg.Sketch = gsketch.Config{TotalBytes: 32 << 10, Seed: 7}
	}
	reg, err := tenant.New(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, httpURL, wireAddr := newWireServer(t, Config{Tenants: reg})
	return srv, httpURL, wireAddr
}

func doReq(t *testing.T, method, url string, body string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func createTenant(t *testing.T, baseURL, name, body string) {
	t.Helper()
	resp, data := doReq(t, http.MethodPut, baseURL+"/t/"+name, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT /t/%s: %d %s", name, resp.StatusCode, data)
	}
}

// TestTenantEquivalenceHTTP is the acceptance criterion: two tenants
// ingesting disjoint streams over their scoped endpoints answer exactly
// like two standalone engines built from the same configuration.
func TestTenantEquivalenceHTTP(t *testing.T) {
	sketchCfg := gsketch.Config{TotalBytes: 32 << 10, Seed: 7}
	_, baseURL, _ := newTenantServer(t, tenant.Config{Sketch: sketchCfg})
	streams := map[string][]stream.Edge{
		"alpha": testStream(4000, 31),
		"beta":  testStream(4000, 32),
	}
	for name, edges := range streams {
		createTenant(t, baseURL, name, "")
		ingestAll(t, baseURL+"/t/"+name, edges)
	}
	for name, edges := range streams {
		qs := make([]core.EdgeQuery, 64)
		for i := range qs {
			qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
		}
		got := queryBatch(t, baseURL+"/t/"+name, qs)

		eng, err := gsketch.Open(sketchCfg, gsketch.WithGlobal())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.TryIngest(edges); err != nil {
			t.Fatal(err)
		}
		drainEngine(t, eng)
		want := eng.QueryBatch(qs)
		eng.Close()
		for i := range qs {
			if got[i].Estimate != want[i].Estimate {
				t.Fatalf("tenant %s query %d: estimate %d, standalone %d", name, i, got[i].Estimate, want[i].Estimate)
			}
		}
	}
}

// TestHugeRateTenantSurvivesWireIngest: a tenant whose rate or burst
// override is at or past 2^63 takes a wire ingest frame whole, and the
// server keeps serving it and its peers. A panic in the token bucket on a
// wire connection's goroutine used to end the process.
func TestHugeRateTenantSurvivesWireIngest(t *testing.T) {
	_, baseURL, wireAddr := newTenantServer(t, tenant.Config{})
	edges := testStream(256, 41)
	for name, body := range map[string]string{
		"rate":  `{"max_edges_per_sec":1e19}`,
		"burst": `{"max_edges_per_sec":1,"burst":9223372036854775807}`,
	} {
		createTenant(t, baseURL, name, body)
		wc := dialWire(t, wireAddr)
		wc.send(t, wire.AppendTenantSelect(nil, name))
		if f := wc.next(t); f.Type != wire.TypeTenantAck {
			t.Fatalf("%s: select type 0x%02x, want tenant ack", name, f.Type)
		}
		if acc, rej := wc.ingestFrame(t, edges); acc != len(edges) || rej != 0 {
			t.Fatalf("%s: ack (%d, %d), want (%d, 0)", name, acc, rej, len(edges))
		}
		wc.flush(t)
		if code, ir := postIngest(t, baseURL+"/t/"+name, edges, true); code != http.StatusOK || ir.Accepted != len(edges) {
			t.Fatalf("%s: HTTP ingest after the frame: %d %+v", name, code, ir)
		}
		if est := wc.queryOne(t, edges[0].Src, edges[0].Dst); est < 2*edges[0].Weight {
			t.Fatalf("%s: estimate %d, want >= %d (both ingests applied)", name, est, 2*edges[0].Weight)
		}
		if resp, data := doReq(t, http.MethodDelete, baseURL+"/t/"+name, ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: delete: %d %s", name, resp.StatusCode, data)
		}
	}
}

// TestTenantOverridesOutOfRange: a PUT whose sketch_bytes or queue_depth
// exceeds what the registry budgets answers 400 bad_request and leaves the
// tenant set, the tenant's overrides and the manifest as they were.
func TestTenantOverridesOutOfRange(t *testing.T) {
	dir := t.TempDir()
	_, baseURL, _ := newTenantServer(t, tenant.Config{Dir: dir})
	manifest := func() string {
		data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		return string(data)
	}
	refused := func(name, body string) {
		t.Helper()
		before := manifest()
		resp, data := doReq(t, http.MethodPut, baseURL+"/t/"+name, body)
		var e errorJSON
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || e.Code != "bad_request" {
			t.Fatalf("PUT /t/%s %s: %d %s, want 400 bad_request", name, body, resp.StatusCode, data)
		}
		if manifest() != before {
			t.Fatalf("PUT /t/%s %s rewrote the manifest", name, body)
		}
	}
	refused("x", `{"sketch_bytes":1099511627776}`)
	if resp, data := doReq(t, http.MethodGet, baseURL+"/t/x", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /t/x after a refused create: %d %s, want 404", resp.StatusCode, data)
	}
	createTenant(t, baseURL, "x", `{"sketch_bytes":32768}`) // the registry's whole budget
	refused("x", `{"queue_depth":1099511627776}`)
	refused("x", `{"sketch_bytes":-1}`)
	var info tenant.Info
	_, data := doReq(t, http.MethodGet, baseURL+"/t/x", "")
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Overrides != (tenant.Overrides{SketchBytes: 32 << 10}) {
		t.Fatalf("overrides after refused updates: %+v", info.Overrides)
	}
}

// TestTenantAdminAPI exercises the registry lifecycle endpoints.
func TestTenantAdminAPI(t *testing.T) {
	_, baseURL, _ := newTenantServer(t, tenant.Config{})

	resp, data := doReq(t, http.MethodPut, baseURL+"/t/acme", `{"max_edges_per_sec":50,"burst":100}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, data)
	}
	// Idempotent re-create updates overrides and answers 200.
	resp, data = doReq(t, http.MethodPut, baseURL+"/t/acme", `{"max_edges_per_sec":75}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-create: %d %s", resp.StatusCode, data)
	}
	var info tenant.Info
	resp, data = doReq(t, http.MethodGet, baseURL+"/t/acme", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "acme" || info.Overrides.MaxEdgesPerSec != 75 {
		t.Fatalf("info after update: %+v", info)
	}
	if info.Resident {
		t.Fatal("tenant resident before first data-path access")
	}

	createTenant(t, baseURL, "zeta", "")
	var list struct {
		Tenants []tenant.Info `json:"tenants"`
	}
	resp, data = doReq(t, http.MethodGet, baseURL+"/t", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Tenants) != 2 || list.Tenants[0].Name != "acme" || list.Tenants[1].Name != "zeta" {
		t.Fatalf("list: %+v, want [acme zeta]", list.Tenants)
	}

	resp, data = doReq(t, http.MethodDelete, baseURL+"/t/zeta", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, data)
	}
	resp, _ = doReq(t, http.MethodGet, baseURL+"/t/zeta", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, baseURL+"/t/zeta", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
}

// TestTenantQuotaDoesNotShedOthers is the quota-isolation criterion: one
// tenant exhausting its token bucket gets 429s with the accepted prefix,
// while a sibling's traffic flows untouched.
func TestTenantQuotaDoesNotShedOthers(t *testing.T) {
	_, baseURL, _ := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "limited", `{"max_edges_per_sec":0.001,"burst":5}`)
	createTenant(t, baseURL, "free", "")

	edges := testStream(50, 41)
	code, ir := postIngest(t, baseURL+"/t/limited", edges, false)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest: %d, want 429", code)
	}
	if ir.Accepted != 5 || ir.Rejected != 45 {
		t.Fatalf("over-quota ingest: accepted %d rejected %d, want 5/45", ir.Accepted, ir.Rejected)
	}
	if ir.Code != "rate_limited" {
		t.Fatalf("over-quota ingest: code %q, want rate_limited", ir.Code)
	}
	// The sibling is untouched by the limited tenant's quota state.
	for i := 0; i < 3; i++ {
		code, ir = postIngest(t, baseURL+"/t/free", edges, true)
		if code != http.StatusOK || ir.Accepted != len(edges) {
			t.Fatalf("free tenant ingest %d: %d accepted=%d, want 200 accepted=%d", i, code, ir.Accepted, len(edges))
		}
	}
	var info tenant.Info
	_, data := doReq(t, http.MethodGet, baseURL+"/t/free", "")
	if err := json.Unmarshal(data, &info); err != nil {
		t.Fatal(err)
	}
	if info.RateLimited != 0 {
		t.Fatalf("free tenant rate-limited %d times, want 0", info.RateLimited)
	}
}

// TestTenantWireSelect drives the tenant-select session protocol on the
// TCP wire: work before select is refused, unknown tenants answer
// CodeNotFound, and after a select the whole frame set is tenant-scoped
// (re-selecting switches tenants mid-connection).
func TestTenantWireSelect(t *testing.T) {
	_, baseURL, wireAddr := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "a", "")
	createTenant(t, baseURL, "b", "")

	wc := dialWire(t, wireAddr)

	// Work frame before any select: refused, connection stays open.
	wc.send(t, wire.AppendPing(nil))
	if f := wc.next(t); f.Type != wire.TypeError {
		t.Fatalf("ping before select: type 0x%02x, want error", f.Type)
	} else if code, _, _ := wire.DecodeError(f.Payload); code != wire.CodeUnsupported {
		t.Fatalf("ping before select: code %d, want CodeUnsupported", code)
	}

	wc.send(t, wire.AppendTenantSelect(nil, "ghost"))
	if f := wc.next(t); f.Type != wire.TypeError {
		t.Fatalf("select unknown: type 0x%02x, want error", f.Type)
	} else if code, _, _ := wire.DecodeError(f.Payload); code != wire.CodeNotFound {
		t.Fatalf("select unknown: code %d, want CodeNotFound", code)
	}

	wc.send(t, wire.AppendTenantSelect(nil, "a"))
	if f := wc.next(t); f.Type != wire.TypeTenantAck {
		t.Fatalf("select a: type 0x%02x, want tenant ack", f.Type)
	}
	edges := []stream.Edge{{Src: 1, Dst: 2, Weight: 5}, {Src: 1, Dst: 2, Weight: 5}}
	wc.ingestWire(t, edges)
	if est := wc.queryOne(t, 1, 2); est < 10 {
		t.Fatalf("tenant a estimate %d, want >= 10", est)
	}

	// Switching tenants mid-connection scopes later frames to b, which
	// never saw the edge.
	wc.send(t, wire.AppendTenantSelect(nil, "b"))
	if f := wc.next(t); f.Type != wire.TypeTenantAck {
		t.Fatalf("select b: type 0x%02x, want tenant ack", f.Type)
	}
	if est := wc.queryOne(t, 1, 2); est != 0 {
		t.Fatalf("tenant b estimate %d, want 0 (isolation)", est)
	}
}

// queryOne answers a single edge query over the wire connection.
func (c *wireClient) queryOne(t *testing.T, src, dst uint64) int64 {
	t.Helper()
	c.buf = wire.AppendQuery(c.buf[:0], []core.EdgeQuery{{Src: src, Dst: dst}})
	c.send(t, c.buf)
	f := c.next(t)
	if f.Type != wire.TypeResults {
		t.Fatalf("query reply type 0x%02x", f.Type)
	}
	rs, err := wire.DecodeResults(nil, f.Payload)
	if err != nil || len(rs) != 1 {
		t.Fatalf("decode results: %v (%d results)", err, len(rs))
	}
	return rs[0].Estimate
}

// TestErrorBodyShape pins the unified JSON error envelope: every failure
// reply across the surface is {"error": ..., "code": ...}, including
// route and tenant 404s.
func TestErrorBodyShape(t *testing.T) {
	_, tenantURL, _ := newTenantServer(t, tenant.Config{})
	createTenant(t, tenantURL, "acme", "")
	g, err := core.BuildGlobalSketch(core.Config{TotalWidth: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, plainTS := newTestServer(t, Config{Engine: testEngine(t, g)})
	plainURL := plainTS.URL

	// Two adaptive servers pin the typed repartition refusals: one whose
	// chain sits at its generation cap (no compaction policy to make room),
	// one with headroom but an empty data reservoir.
	edges := testStream(2000, 91)
	capped := adapt.NewChain(buildTestGSketch(t, edges[:500]),
		adapt.ChainConfig{SampleSize: 512, Seed: 3, MaxGenerations: 1})
	_, cappedTS := newTestServer(t, Config{Engine: testEngine(t, capped)})
	starved := adapt.NewChain(buildTestGSketch(t, edges[:500]),
		adapt.ChainConfig{SampleSize: 512, Seed: 3})
	_, starvedTS := newTestServer(t, Config{Engine: testEngine(t, starved)})

	cases := []struct {
		name     string
		method   string
		url      string
		body     string
		wantCode int
		wantSlug string
	}{
		{"unknown route", http.MethodGet, plainURL + "/nope", "", http.StatusNotFound, "not_found"},
		{"unknown route tenant mode", http.MethodGet, tenantURL + "/nope", "", http.StatusNotFound, "not_found"},
		{"method mismatch", http.MethodGet, plainURL + "/ingest", "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"unknown tenant ingest", http.MethodPost, tenantURL + "/t/ghost/ingest", `{"src":1,"dst":2}`, http.StatusNotFound, "tenant_not_found"},
		{"unknown tenant query", http.MethodPost, tenantURL + "/t/ghost/query", `{"queries":[{"src":1,"dst":2}]}`, http.StatusNotFound, "tenant_not_found"},
		{"unknown tenant info", http.MethodGet, tenantURL + "/t/ghost", "", http.StatusNotFound, "tenant_not_found"},
		{"bad tenant name", http.MethodPut, tenantURL + "/t/no..dots", "", http.StatusBadRequest, "bad_request"},
		{"bad ingest body", http.MethodPost, tenantURL + "/t/acme/ingest", "{not json}", http.StatusBadRequest, "bad_request"},
		{"empty query batch", http.MethodPost, tenantURL + "/t/acme/query", `{"queries":[]}`, http.StatusBadRequest, "bad_request"},
		{"bad query body plain", http.MethodPost, plainURL + "/query", "{not json}", http.StatusBadRequest, "bad_request"},
		{"unconfined snapshot path", http.MethodPost, plainURL + "/snapshot/save", `{"path":"/tmp/evil.gsk"}`, http.StatusForbidden, "forbidden"},
		{"repartition at generation cap", http.MethodPost, cappedTS.URL + "/repartition", "", http.StatusConflict, "max_generations"},
		{"repartition empty reservoir", http.MethodPost, starvedTS.URL + "/repartition", "", http.StatusConflict, "empty_reservoir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := doReq(t, tc.method, tc.url, tc.body)
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("%s %s: %d, want %d (%s)", tc.method, tc.url, resp.StatusCode, tc.wantCode, data)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Fatalf("content type %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(data, &body); err != nil {
				t.Fatalf("error body %q: %v", data, err)
			}
			if body.Error == "" {
				t.Fatalf("error body %q: empty error message", data)
			}
			if body.Code != tc.wantSlug {
				t.Fatalf("error body %q: code %q, want %q", data, body.Code, tc.wantSlug)
			}
		})
	}
}

// TestTenantEvictReopenHTTP runs the LRU lifecycle through the HTTP
// surface: with one resident slot, touching a second tenant evicts the
// first, whose next request transparently reopens it with identical
// answers.
func TestTenantEvictReopenHTTP(t *testing.T) {
	srv, baseURL, _ := newTenantServer(t, tenant.Config{MaxResident: 1})
	createTenant(t, baseURL, "hot", "")
	createTenant(t, baseURL, "cold", "")

	edges := testStream(3000, 51)
	ingestAll(t, baseURL+"/t/hot", edges)
	qs := make([]core.EdgeQuery, 32)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	before := queryBatch(t, baseURL+"/t/hot", qs)

	// Touching cold evicts hot (cap 1).
	ingestAll(t, baseURL+"/t/cold", testStream(100, 52))
	st := srv.tenants.RegistryStats()
	if st.Resident != 1 || st.Evictions == 0 {
		t.Fatalf("after touching cold: %+v, want 1 resident and >0 evictions", st)
	}

	after := queryBatch(t, baseURL+"/t/hot", qs)
	for i := range qs {
		if after[i].Estimate != before[i].Estimate {
			t.Fatalf("query %d: %d after reopen, %d before", i, after[i].Estimate, before[i].Estimate)
		}
	}
	if st := srv.tenants.RegistryStats(); st.Reopens == 0 {
		t.Fatalf("stats %+v, want >0 reopens", st)
	}
}

// drainEngine flushes an engine's pipeline with a bounded wait.
func drainEngine(t *testing.T, eng *gsketch.Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := eng.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestSnapshotRestoreModes drives the one restore handler in both modes:
// a path restores an engine or a tenant, a raw body restores an engine
// only (tenant mode answers 501), only an engine's reply carries
// partitions, and a missing file is a 404 in both.
func TestSnapshotRestoreModes(t *testing.T) {
	edges := testStream(3000, 17)
	restore := func(url, contentType, body string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Post(url, contentType, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var reply map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, reply
	}
	saved := func(url string) string {
		t.Helper()
		resp, data := doReq(t, http.MethodPost, url, "")
		var reply struct{ Path string }
		if err := json.Unmarshal(data, &reply); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("save: %d %s", resp.StatusCode, data)
		}
		return reply.Path
	}

	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges[:1000]),
		gsketch.WithSnapshotFile(filepath.Join(dir, "engine.gsk")))})
	ingestAll(t, ts.URL, edges)
	drainEngine(t, srv.Engine())
	saved(ts.URL + "/snapshot/save")
	var raw strings.Builder
	if _, err := srv.Engine().Save(&raw); err != nil {
		t.Fatal(err)
	}
	for _, body := range []struct{ contentType, body string }{
		{"application/json", ""},
		{"application/octet-stream", raw.String()},
	} {
		code, reply := restore(ts.URL+"/snapshot/restore", body.contentType, body.body)
		if code != http.StatusOK || reply["partitions"] == nil || reply["generations"] != float64(1) {
			t.Fatalf("engine restore (%s): %d %v", body.contentType, code, reply)
		}
	}
	if code, reply := restore(ts.URL+"/snapshot/restore", "application/json",
		`{"path":"`+filepath.Join(dir, "missing.gsk")+`"}`); code != http.StatusNotFound {
		t.Fatalf("engine restore of a missing file: %d %v", code, reply)
	}

	_, baseURL, _ := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "acme", "")
	ingestAll(t, baseURL+"/t/acme", edges)
	path := saved(baseURL + "/t/acme/snapshot/save")
	code, reply := restore(baseURL+"/t/acme/snapshot/restore", "application/json", "")
	if _, ok := reply["partitions"]; code != http.StatusOK || ok || reply["restored"] != path ||
		reply["stream_total"] == float64(0) {
		t.Fatalf("tenant restore: %d %v", code, reply)
	}
	if code, reply := restore(baseURL+"/t/acme/snapshot/restore", "application/octet-stream", raw.String()); code != http.StatusNotImplemented {
		t.Fatalf("tenant restore of a raw body: %d %v", code, reply)
	}
	if code, reply := restore(baseURL+"/t/acme/snapshot/restore", "application/json",
		`{"path":"`+filepath.Join(filepath.Dir(path), "missing.snap")+`"}`); code != http.StatusNotFound {
		t.Fatalf("tenant restore of a missing file: %d %v", code, reply)
	}
	if code, reply := restore(baseURL+"/t/ghost/snapshot/restore", "application/json", ""); code != http.StatusNotFound ||
		reply["code"] != "tenant_not_found" {
		t.Fatalf("restore of an unknown tenant: %d %v", code, reply)
	}
}
