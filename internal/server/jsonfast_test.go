package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/tenant"
)

// resultJSON is one bound-carrying answer: the batched read path's Result
// plus the echoed query endpoints.
type resultJSON struct {
	Src         uint64  `json:"src"`
	Dst         uint64  `json:"dst"`
	Estimate    int64   `json:"estimate"`
	Partition   int     `json:"partition"`
	Outlier     bool    `json:"outlier,omitempty"`
	ErrorBound  float64 `json:"error_bound"`
	Confidence  float64 `json:"confidence"`
	StreamTotal int64   `json:"stream_total"`
}

// queryResponse is the POST /query reply as encoding/json writes it: the
// reference appendQueryReply is held to, and what tests decode replies
// with.
type queryResponse struct {
	Results []resultJSON `json:"results"`
}

// newQueryResponse pairs results with the queries they answer.
func newQueryResponse(qs []core.EdgeQuery, results []core.Result) queryResponse {
	resp := queryResponse{Results: make([]resultJSON, len(results))}
	for i, res := range results {
		resp.Results[i] = resultJSON{
			Src:         qs[i].Src,
			Dst:         qs[i].Dst,
			Estimate:    res.Estimate,
			Partition:   res.Partition,
			Outlier:     res.Outlier,
			ErrorBound:  res.ErrorBound,
			Confidence:  res.Confidence,
			StreamTotal: res.StreamTotal,
		}
	}
	return resp
}

// TestAppendQueryReplyMatchesEncodingJSON is the reply-bytes property: for
// any results, appendQueryReply writes exactly what the encoder wrote
// before it, and refuses what the encoder refuses.
func TestAppendQueryReplyMatchesEncodingJSON(t *testing.T) {
	// Both sides of each cutoff of encoding/json's float rule, values whose
	// exponent loses a zero, and values a run of equal floats must not blur.
	floats := []float64{
		0, math.Copysign(0, -1), 1, 0.5, 0.9816843611112658, 123456.789, -2.5,
		1e-6, 9.99e-7, 1e-7, 3.3e-9, -3.3e-9, 1e-10, 5e-324,
		1e20, 1e21, 1.5e22, 1e100, math.MaxFloat64,
	}
	rng := hashutil.NewRNG(5)
	pick := func() float64 {
		if rng.Uint64()%4 == 0 {
			return math.Float64frombits(rng.Uint64()) // anything, NaN and Inf too
		}
		return floats[rng.Uint64()%uint64(len(floats))]
	}
	refused := 0
	for n := 0; n < 2000; n++ {
		size := int(rng.Uint64() % 6) // the empty list included
		qs := make([]core.EdgeQuery, size)
		results := make([]core.Result, size)
		for i := range results {
			qs[i] = core.EdgeQuery{Src: rng.Uint64() >> (rng.Uint64() % 64), Dst: rng.Uint64() >> (rng.Uint64() % 64)}
			results[i] = core.Result{
				Estimate:    int64(rng.Uint64()) >> (rng.Uint64() % 64),
				Partition:   int(rng.Uint64()%5) - 1, // NoPartition included
				Outlier:     rng.Uint64()%2 == 0,
				ErrorBound:  pick(),
				Confidence:  pick(),
				StreamTotal: int64(rng.Uint64() >> 1),
			}
			if i > 0 && rng.Uint64()%2 == 0 { // runs of equal floats
				results[i].ErrorBound = results[i-1].ErrorBound
				results[i].Confidence = results[i-1].Confidence
			}
		}
		var want bytes.Buffer
		err := json.NewEncoder(&want).Encode(newQueryResponse(qs, results))
		got, ok := appendQueryReply(nil, qs, results)
		if ok != (err == nil) {
			t.Fatalf("results %+v: appendQueryReply ok=%v, Encode error %v", results, ok, err)
		}
		if !ok {
			refused++
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("results %+v:\nappended %s\nencoded  %s", results, got, want.Bytes())
		}
	}
	if refused == 0 || refused == 2000 {
		t.Fatalf("%d of 2000 replies refused: the generator no longer covers both sides", refused)
	}
}

// infBound is a foreign estimator whose every answer carries a +Inf bound.
type infBound struct{ core.Estimator }

func (e infBound) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	rs := e.Estimator.EstimateBatch(qs)
	for i := range rs {
		rs[i].ErrorBound = math.Inf(1)
	}
	return rs
}

// TestQueryNonFiniteBoundIs500 checks that a /query batch JSON cannot
// carry gets a 500 error envelope, not a 200 with no body, while the wire
// answer to the same batch, raw float64 on the frame, is unchanged.
func TestQueryNonFiniteBoundIs500(t *testing.T) {
	edges := testStream(1000, 23)
	g := buildTestGSketch(t, edges)
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, infBound{g})})
	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)
	qs := []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}, {Src: 1 << 40, Dst: 7}}

	resp, err := http.Post(httpURL+"/query", "application/json",
		strings.NewReader(fmt.Sprintf(`{"queries":[{"src":%d,"dst":%d},{"src":%d,"dst":%d}]}`,
			qs[0].Src, qs[0].Dst, qs[1].Src, qs[1].Dst)))
	if err != nil {
		t.Fatal(err)
	}
	var e errorJSON
	err = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || e.Error == "" || e.Code != "internal" {
		t.Fatalf("POST /query with a +Inf bound: %d %+v (decode error %v), want 500 with an internal error envelope",
			resp.StatusCode, e, err)
	}

	want := infBound{g}.EstimateBatch(qs)
	got := wc.queryWire(t, qs)
	if len(got) != len(want) {
		t.Fatalf("wire answered %d of %d queries", len(got), len(want))
	}
	if want[0].Estimate == 0 {
		t.Fatal("an ingested edge estimates 0")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wire answer %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestBodyTooLargeIs413 checks that every route that reads a bounded body
// answers a body past the bound the same way.
func TestBodyTooLargeIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, testStream(1000, 17)),
			gsketch.WithWindows(gsketch.WindowConfig{Span: 1000, SampleSize: 64})),
		MaxBodyBytes: 256,
	})
	one := `{"src":1,"dst":2}`
	many := strings.Repeat(one+",", 20) + one // 377 bytes
	for _, c := range []struct{ path, ctype, within, over string }{
		{"/ingest", "application/x-ndjson", one + "\n", strings.Repeat(one+"\n", 20)},
		{"/query", "application/json", `{"queries":[` + one + `]}`, `{"queries":[` + many + `]}`},
		{"/query/window", "application/json", `{"queries":[` + one + `],"t1":0,"t2":9}`, `{"queries":[` + many + `],"t1":0,"t2":9}`},
	} {
		resp, err := http.Post(ts.URL+c.path, c.ctype, strings.NewReader(c.over))
		if err != nil {
			t.Fatal(err)
		}
		var e errorJSON
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "request body too large") {
			t.Errorf("POST %s with %d bytes: %d %+v, want 413", c.path, len(c.over), resp.StatusCode, e)
		}
		resp, err = http.Post(ts.URL+c.path, c.ctype, strings.NewReader(c.within))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s with %d bytes: %d, want 200", c.path, len(c.within), resp.StatusCode)
		}
	}
}

var estimateField = regexp.MustCompile(`"estimate":-?[0-9]`)

// TestHarnessContract pins what the benchmark's HTTP client (benchmark/
// client.go, which a change that claims a gain may not edit) reads off a
// live tenant server: its flush is an ingest with an empty body; on a 429
// it skips exactly `accepted` lines of what it sent; its timed query path
// scans the reply for `"estimate":` followed at once by digits, one per
// query. A body the recognizer declines must behave the same.
func TestHarnessContract(t *testing.T) {
	_, baseURL, _ := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "a", "")
	createTenant(t, baseURL, "limited", `{"max_edges_per_sec":0.001,"burst":5}`)

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		return doReq(t, http.MethodPost, baseURL+path, body)
	}

	resp, raw := post("/t/a/ingest?sync=1", "")
	if resp.StatusCode != http.StatusOK || string(raw) != `{"accepted":0}`+"\n" {
		t.Fatalf("empty-body flush: %d %q, want 200 {\"accepted\":0}", resp.StatusCode, raw)
	}

	// Ingest without sync, then let a query in the declined key order
	// drain: every edge must be in the answer's stream total.
	edges := testStream(300, 43)
	qs := make([]core.EdgeQuery, len(edges))
	var total, firstFive int64
	for i, e := range edges {
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
		total += e.Weight
		if i < 5 {
			firstFive += e.Weight
		}
	}
	resp, raw = post("/t/a/ingest", ndjsonBody(edges).String())
	if resp.StatusCode != http.StatusOK || string(raw) != `{"accepted":300}`+"\n" {
		t.Fatalf("ingest: %d %q", resp.StatusCode, raw)
	}
	canonical := string(queryBodyJSON(t, qs))
	declined := `{"sync":true,` + canonical[1:]
	if got := queryTier(t, []byte(canonical)); got != tierFused {
		t.Fatalf("the harness's query shape is taken by %s, want %s", got, tierFused)
	}
	if _, _, ok := scanQueryBody([]byte(declined), nil); ok {
		t.Fatal("sync-first body was meant to take the encoding/json path")
	}
	_, slow := post("/t/a/query", declined)
	resp, fast := post("/t/a/query", canonical)
	if !bytes.Equal(slow, fast) {
		t.Fatalf("declined and recognized bodies answered differently:\n%s\n%s", slow, fast)
	}
	if n := len(estimateField.FindAll(fast, -1)); n != len(edges) {
		t.Fatalf("reply matches %s %d times for %d queries", estimateField, n, len(edges))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(fast)) {
		t.Fatalf("Content-Length %q on a %d-byte reply", got, len(fast))
	}
	var qr queryResponse
	if err := json.Unmarshal(fast, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Results[0].StreamTotal != total {
		t.Fatalf("stream_total %d after a sync query, want %d", qr.Results[0].StreamTotal, total)
	}

	// A 429 takes exactly the lines it says it took.
	resp, raw = post("/t/limited/ingest", ndjsonBody(edges[:50]).String())
	var ir ingestResponse
	if err := json.Unmarshal(raw, &ir); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || ir.Accepted != 5 {
		t.Fatalf("over-quota ingest: %d %s, want 429 with accepted 5", resp.StatusCode, raw)
	}
	post("/t/limited/ingest?sync=1", "")
	_, raw = post("/t/limited/query", `{"queries":[{"src":1,"dst":2}]}`)
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Results[0].StreamTotal != firstFive {
		t.Fatalf("stream_total %d after a 429 with accepted 5, want the first five lines' %d", qr.Results[0].StreamTotal, firstFive)
	}
}
