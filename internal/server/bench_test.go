package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
)

// The HTTP rung without the harness: one request body posted over and over
// through srv.Handler() into a ResponseWriter that discards, so what is
// timed is the handler — body parse, engine call, reply — and not a socket
// or a client.

type discardResponse struct {
	header http.Header
	code   int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) WriteHeader(code int)        { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }

// benchPost serves b.N posts of body to target and reports the time per
// record of the body, n records each.
func benchPost(b *testing.B, h http.Handler, target string, body []byte, n int, unit string) {
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, target, nil)
	req.Body = io.NopCloser(rd)
	w := &discardResponse{header: http.Header{}}
	post := func() {
		rd.Reset(body)
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("POST %s: status %d", target, w.code)
		}
	}
	post() // warm the buffer pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), unit)
}

// BenchmarkHTTPIngestNDJSON posts a 2048-line NDJSON body with ?sync=1, so
// every iteration also applies its edges and the queue never sheds.
func BenchmarkHTTPIngestNDJSON(b *testing.B) {
	const n = 2048
	edges := testStream(n, 31)
	g, err := core.BuildGSketch(testSketchConfig(), edges, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{
		Estimator: core.NewConcurrent(g),
		Ingest:    ingest.Config{Workers: 1, BatchSize: 1024, QueueDepth: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	benchPost(b, srv.Handler(), "/ingest?sync=1", ndjsonBody(edges).Bytes(), n, "ns/edge")
}

// BenchmarkHTTPQueryJSON posts a 512-query JSON batch.
func BenchmarkHTTPQueryJSON(b *testing.B) {
	const n = 512
	edges := testStream(4096, 37)
	g, err := core.BuildGSketch(testSketchConfig(), edges, nil)
	if err != nil {
		b.Fatal(err)
	}
	g.UpdateBatch(edges)
	srv, err := New(Config{Estimator: core.NewConcurrent(g)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	qs := make([]core.EdgeQuery, n)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	benchPost(b, srv.Handler(), "/query", queryBodyJSON(b, qs), n, "ns/query")
}
