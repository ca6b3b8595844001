package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
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
		Engine: testEngine(b, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 1024, QueueDepth: 16})),
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
	srv, err := New(Config{Engine: testEngine(b, core.NewConcurrent(g))})
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

// BenchmarkEdgeLine reads 2048 ingest lines through scanEdgeLine per
// iteration, in the benchmark client's shape (benchmark/inputs.go) and in
// two shapes only the second tier takes: spaced as Python's json.dumps
// writes them, and with the keys reordered.
func BenchmarkEdgeLine(b *testing.B) {
	edges := testStream(2048, 31)
	for _, c := range []struct {
		name, format string
		tier         tier
	}{
		{"canonical", `{"src":%d,"dst":%d,"weight":%d}`, tierFused},
		{"spaced", `{"src": %d, "dst": %d, "weight": %d}`, tierObject},
		{"reordered", `{"dst":%[2]d,"src":%[1]d,"weight":%[3]d}`, tierObject},
	} {
		lines := make([][]byte, len(edges))
		for i, e := range edges {
			lines[i] = fmt.Appendf(nil, c.format, e.Src, e.Dst, e.Weight)
			if got := edgeTier(lines[i]); got != c.tier {
				b.Fatalf("%s line %q is taken by %s, want %s", c.name, lines[i], got, c.tier)
			}
		}
		b.Run(c.name, func(b *testing.B) {
			var sum uint64
			for i := 0; i < b.N; i++ {
				for _, line := range lines {
					e, _ := scanEdgeLine(line)
					sum += e.Src
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/line")
			if sum == 0 {
				b.Fatal("no line read")
			}
		})
	}
}

// BenchmarkWireIngestFrame is the wire ingest rung without the harness:
// closed-loop clients over loopback TCP, each sending b.N frames and reading
// every ack, against a server whose connections fold their own frames. It
// sweeps what that design depends on — the frame size (a 256-edge frame is
// mostly round trip, an 8192-edge one mostly fold), the number of
// connections (one connection folds on one core; two fold in parallel under
// the stripe locks) and a third connection flushing all the while, since
// every fold is registered in the count a flush waits on. ns/edge is wall
// time over all edges acked, client side included.
func BenchmarkWireIngestFrame(b *testing.B) {
	edges := testStream(8192, 31)
	for _, frame := range []int{256, 8192} {
		for _, conns := range []int{1, 2} {
			for _, flusher := range []bool{false, true} {
				name := fmt.Sprintf("edges=%d/conns=%d/flusher=%v", frame, conns, flusher)
				b.Run(name, func(b *testing.B) { benchWireIngestFrame(b, edges[:frame], conns, flusher) })
			}
		}
	}
}

func benchWireIngestFrame(b *testing.B, frame []stream.Edge, conns int, flusher bool) {
	g, err := core.BuildGSketch(testSketchConfig(), frame, nil)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(Config{Engine: testEngine(b, core.NewConcurrent(g))})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // ErrServerClosed after Close
	dial := func() *wire.Client {
		cl, err := wire.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { cl.Close() })
		return cl
	}
	send := func(cl *wire.Client, n int) {
		for i := 0; i < n; i++ {
			if acc, rej, err := cl.Ingest(frame); acc != len(frame) || rej != 0 || err != nil {
				b.Errorf("ack (%d, %d, %v), want (%d, 0)", acc, rej, err, len(frame))
				return
			}
		}
	}
	clients := make([]*wire.Client, conns)
	for c := range clients {
		clients[c] = dial()
		send(clients[c], 1) // warm the connection's buffers on both sides
	}
	stop := make(chan struct{})
	var flushing sync.WaitGroup
	if flusher {
		fl := dial()
		flushing.Add(1)
		go func() {
			defer flushing.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := fl.Flush(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *wire.Client) {
			defer wg.Done()
			send(cl, b.N)
		}(cl)
	}
	wg.Wait()
	b.StopTimer()
	close(stop)
	flushing.Wait()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*conns*len(frame)), "ns/edge")
}
