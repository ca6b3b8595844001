package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
)

// TestIngestAllocsPerEdge is the regression guard for the pooled hot
// path: a warm server must not allocate parse or batch buffers per
// request, so the per-edge allocation count stays flat. Canonical NDJSON
// lines are recognized without encoding/json and cost no allocation
// either; only the request-constant overhead is left. The wire
// transport's guard is TestWireIngestAllocsPerEdge.
func TestIngestAllocsPerEdge(t *testing.T) {
	const n = 2048
	edges := testStream(n, 31)
	g := buildTestGSketch(t, edges)
	srv, _ := newTestServer(t, Config{
		Engine: testEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 1024, QueueDepth: 16})),
	})
	h := srv.Handler()

	ndjson := ndjsonBody(edges).Bytes()
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/ingest?sync=1", bytes.NewReader(ndjson))
		req.Header.Set("Content-Type", "application/x-ndjson")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
		}
	}

	post() // warm the buffer pools
	perEdge := testing.AllocsPerRun(10, post) / n
	t.Logf("allocs/edge: ndjson=%.3f", perEdge)

	// json.Unmarshal would cost ~5 allocs per line; tens of allocs per
	// request over 2048 lines means every line took the recognizer and the
	// scan and batch buffers are pooled.
	if perEdge > 0.05 {
		t.Errorf("NDJSON ingest allocates %.3f allocs/edge, want <= 0.05 — lines are falling through to encoding/json, or a hot-path buffer is no longer pooled", perEdge)
	}
}

// queryBodyJSON renders qs as a /query body; json.Marshal writes the
// shape every producer in the repository sends.
func queryBodyJSON(tb testing.TB, qs []core.EdgeQuery) []byte {
	tb.Helper()
	req := queryRequest{Queries: make([]queryJSON, len(qs))}
	for i, q := range qs {
		req.Queries[i] = queryJSON{Src: q.Src, Dst: q.Dst}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestQueryAllocsPerQuery is the read-side guard: a JSON /query batch is
// recognized into a pooled query buffer and answered out of a pooled byte
// buffer, so what a warm server allocates does not grow with the batch
// (encoding/json both ways cost 47 allocations and 115 KB per 512 queries).
func TestQueryAllocsPerQuery(t *testing.T) {
	const n = 512
	edges := testStream(4096, 37)
	g := buildTestGSketch(t, edges)
	g.UpdateBatch(edges)
	srv, _ := newTestServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g))})
	h := srv.Handler()

	qs := make([]core.EdgeQuery, n)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	body := queryBodyJSON(t, qs)
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("query status %d: %s", rec.Code, rec.Body.String())
		}
	}
	post() // warm the buffer pools
	perQuery := testing.AllocsPerRun(10, post) / n
	t.Logf("allocs/query: %.3f", perQuery)
	if perQuery > 0.1 {
		t.Errorf("JSON query allocates %.3f allocs/query, want <= 0.1 — the body or the reply is back on encoding/json, or a buffer is no longer pooled", perQuery)
	}
}
