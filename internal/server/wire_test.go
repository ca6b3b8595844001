package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

// wireContentType is the media type of the wire-framed HTTP bodies the
// server no longer decodes: wire frames travel over TCP only.
const wireContentType = "application/x-gsketch-wire"

// wireClient is a minimal test client for the TCP wire protocol.
type wireClient struct {
	conn net.Conn
	dec  *wire.Decoder
	buf  []byte
	read int // bytes of the reply frames read so far
}

func dialWire(t *testing.T, addr string) *wireClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &wireClient{conn: conn, dec: wire.NewDecoder(bufio.NewReader(conn))}
}

func (c *wireClient) send(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := c.conn.Write(frame); err != nil {
		t.Fatal(err)
	}
}

func (c *wireClient) next(t *testing.T) wire.Frame {
	t.Helper()
	f, err := c.dec.Next()
	if err != nil {
		t.Fatalf("reading reply frame: %v", err)
	}
	c.read += wire.HeaderSize + len(f.Payload)
	return f
}

// ingestWire pushes edges through the connection in chunks, retrying any
// rejected suffix, then flushes the pipeline.
func (c *wireClient) ingestWire(t *testing.T, edges []stream.Edge) {
	t.Helper()
	const chunk = 1024
	for lo := 0; lo < len(edges); {
		hi := lo + chunk
		if hi > len(edges) {
			hi = len(edges)
		}
		c.buf = wire.AppendIngest(c.buf[:0], edges[lo:hi])
		c.send(t, c.buf)
		f := c.next(t)
		if f.Type != wire.TypeAck {
			t.Fatalf("ingest reply type 0x%02x, want ack", f.Type)
		}
		accepted, _, err := wire.DecodeAck(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		lo += accepted
		if accepted == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	c.buf = wire.AppendFlush(c.buf[:0])
	c.send(t, c.buf)
	if f := c.next(t); f.Type != wire.TypeFlushAck {
		t.Fatalf("flush reply type 0x%02x, want flush ack", f.Type)
	}
}

func (c *wireClient) queryWire(t *testing.T, qs []core.EdgeQuery) []core.Result {
	t.Helper()
	c.buf = wire.AppendQuery(c.buf[:0], qs)
	c.send(t, c.buf)
	f := c.next(t)
	if f.Type != wire.TypeResults {
		t.Fatalf("query reply type 0x%02x, want results", f.Type)
	}
	rs, err := wire.DecodeResults(nil, f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// newWireServer starts a server with both an httptest HTTP frontend and a
// loopback TCP wire listener.
func newWireServer(t *testing.T, cfg Config) (*Server, string, string) {
	t.Helper()
	srv, ts := newTestServer(t, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // ErrServerClosed after shutdown
	return srv, ts.URL, ln.Addr().String()
}

// TestWireEquivalence ingests the same stream over the TCP wire protocol
// and checks that wire queries answer byte-identically to the engine's own
// read path, and HTTP JSON queries on every field they carry.
func TestWireEquivalence(t *testing.T) {
	edges := testStream(6000, 11)
	g := buildTestGSketch(t, edges[:2000])
	cfg := Config{
		Engine: testEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 256})),
	}
	srv, httpURL, wireAddr := newWireServer(t, cfg)

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)

	var total int64
	for _, e := range edges {
		total += e.Weight
	}
	if got := srv.Engine().Estimator().Count(); got != total {
		t.Fatalf("wire ingest lost volume: Count=%d want %d", got, total)
	}

	qs := make([]core.EdgeQuery, 512)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i*7%len(edges)].Src, Dst: edges[i*7%len(edges)].Dst}
	}
	want := srv.Engine().QueryBatch(qs)

	got := wc.queryWire(t, qs)
	if len(got) != len(want) {
		t.Fatalf("wire answered %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("wire result %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// A second connection's results frame is, byte for byte, the frame
	// the engine's answers encode to.
	wc2 := dialWire(t, wireAddr)
	wc2.send(t, wire.AppendQuery(nil, qs))
	f := wc2.next(t)
	if wantFrame := wire.AppendResults(nil, want); f.Type != wire.TypeResults || !bytes.Equal(f.Payload, wantFrame[wire.HeaderSize:]) {
		t.Fatalf("second connection's reply (type 0x%02x, %d payload bytes) differs from the engine's answers encoded", f.Type, len(f.Payload))
	}

	// The JSON path agrees on every field it carries.
	jsonGot := queryBatch(t, httpURL, qs)
	for i := range want {
		j := jsonGot[i]
		if j.Estimate != want[i].Estimate || j.Partition != want[i].Partition ||
			j.Outlier != want[i].Outlier || j.ErrorBound != want[i].ErrorBound ||
			j.Confidence != want[i].Confidence {
			t.Fatalf("json result %d = %+v, want %+v", i, j, want[i])
		}
	}
}

// TestWireIngestVolumeSaturates: one wire frame carrying two edges of weight
// 2⁶² used to wrap the stream volume negative, and with it every reply's
// StreamTotal and ε·N_i bound. The volume now pins at MaxInt64.
func TestWireIngestVolumeSaturates(t *testing.T) {
	edges := testStream(600, 23)
	g := buildTestGSketch(t, edges)
	srv, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g))})
	frame := append([]stream.Edge(nil), edges[:200]...)
	frame[20].Weight, frame[120].Weight = 1<<62, 1<<62
	frame[121] = frame[120]

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, frame) // one frame: under the client's 1024-edge chunk
	if got := srv.Engine().Estimator().Count(); got != math.MaxInt64 {
		t.Fatalf("Count = %d after the frame, want MaxInt64", got)
	}
	qs := make([]core.EdgeQuery, len(frame))
	for i, e := range frame {
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	for i, r := range wc.queryWire(t, qs) {
		if r.StreamTotal != math.MaxInt64 || r.ErrorBound < 0 || r.Estimate < 0 {
			t.Fatalf("query %d = %+v, want StreamTotal MaxInt64 and non-negative bounds", i, r)
		}
	}
}

// TestWireCorruptFrame sends garbage mid-stream: the server must answer a
// typed error frame and close the connection without panicking.
func TestWireCorruptFrame(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	_, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g))})

	wc := dialWire(t, wireAddr)
	// A valid frame first, so the failure is genuinely mid-stream.
	wc.buf = wire.AppendQuery(wc.buf[:0], []core.EdgeQuery{{Src: 1, Dst: 2}})
	wc.send(t, wc.buf)
	if f := wc.next(t); f.Type != wire.TypeResults {
		t.Fatalf("warmup reply type 0x%02x", f.Type)
	}
	wc.send(t, []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff})
	f := wc.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("reply type 0x%02x, want error", f.Type)
	}
	code, msg, err := wire.DecodeError(f.Payload)
	if err != nil || code != wire.CodeBadFrame || msg == "" {
		t.Fatalf("error frame = (%d, %q, %v), want code %d", code, msg, err, wire.CodeBadFrame)
	}
	if _, err := wc.dec.Next(); err == nil {
		t.Fatal("connection still open after protocol error")
	}
}

// TestWireOversizedFrame checks the size bound: a header claiming more
// than MaxBodyBytes is rejected up front.
func TestWireOversizedFrame(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	_, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g)), MaxBodyBytes: 1 << 16})

	wc := dialWire(t, wireAddr)
	hdr := make([]byte, wire.HeaderSize)
	hdr[0], hdr[1] = wire.Version, wire.TypeIngest
	hdr[4], hdr[5], hdr[6], hdr[7] = 0xff, 0xff, 0xff, 0x0f // 256 MiB claim
	wc.send(t, hdr)
	f := wc.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("reply type 0x%02x, want error", f.Type)
	}
}

// TestWireBadFrames sends malformed and unexpected frames over TCP, each on
// a fresh connection. A frame the server cannot read (cut short, of a reply
// type, or with a ragged payload) gets one CodeBadFrame error frame, counts
// one decode error and closes the connection; a connection closed before
// any frame gets no reply and counts none; an empty query batch is answered
// with an empty results frame and the connection stays open. None of them
// ingests an edge.
func TestWireBadFrames(t *testing.T) {
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(100, 3)))})

	ragged := wire.AppendQuery(nil, []core.EdgeQuery{{Src: 1, Dst: 2}})
	ragged = append(ragged, 0)
	binary.LittleEndian.PutUint32(ragged[4:], wire.QuerySize+1)
	cases := []struct {
		name      string
		send      []byte
		closeSend bool // half-close after sending, so a short frame ends
		refused   bool // an error frame comes back and the connection closes
	}{
		{"truncated", wire.AppendIngest(nil, testStream(4, 1))[:10], true, true},
		{"empty", nil, true, false},
		{"reply type from client", wire.AppendAck(nil, 1, 0), false, true},
		{"ragged query payload", ragged, false, true},
		{"empty query batch", wire.AppendQuery(nil, nil), false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := getStats(t, httpURL)
			wc := dialWire(t, wireAddr)
			if len(tc.send) > 0 {
				wc.send(t, tc.send)
			}
			if tc.closeSend {
				if err := wc.conn.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			var errs float64
			switch {
			case tc.refused:
				f := wc.next(t)
				if f.Type != wire.TypeError {
					t.Fatalf("reply type 0x%02x, want error", f.Type)
				}
				code, msg, err := wire.DecodeError(f.Payload)
				if err != nil || code != wire.CodeBadFrame || msg == "" {
					t.Fatalf("error frame = (%d, %q, %v), want code %d", code, msg, err, wire.CodeBadFrame)
				}
				errs = 1
			case tc.closeSend:
				// Nothing sent: the server closes without a frame.
			default:
				f := wc.next(t)
				rs, err := wire.DecodeResults(nil, f.Payload)
				if f.Type != wire.TypeResults || err != nil || len(rs) != 0 {
					t.Fatalf("reply type 0x%02x with %d results (%v), want an empty results frame", f.Type, len(rs), err)
				}
				wc.ping(t) // the connection still serves
			}
			if tc.closeSend || tc.refused {
				// The server closed its side once its loop ended, so every
				// counter it touches is settled.
				if f, err := wc.dec.Next(); err == nil {
					t.Fatalf("frame 0x%02x after the connection should have closed", f.Type)
				}
			}
			after := getStats(t, httpURL)
			if got := after["wire_decode_errors"].(float64) - before["wire_decode_errors"].(float64); got != errs {
				t.Errorf("wire_decode_errors moved by %v, want %v", got, errs)
			}
			for _, key := range []string{"stream_total", "edges_accepted"} {
				if after[key] != before[key] {
					t.Errorf("%s went %v -> %v, want unchanged", key, before[key], after[key])
				}
			}
		})
	}
}

// TestWireVersionOneRefused: version 2 keeps no version-1 path. A
// version-1 ingest or query frame — well formed in the old protocol — gets
// one CodeBadFrame error frame, counts one decode error, closes the
// connection, and ingests or answers nothing.
func TestWireVersionOneRefused(t *testing.T) {
	edges := testStream(100, 3)
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges))})
	v1 := func(frame []byte) []byte {
		frame[0] = 1
		return frame
	}
	cases := map[string][]byte{
		"ingest": v1(wire.AppendIngest(nil, edges[:4])),
		"query":  v1(wire.AppendQuery(nil, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			before := getStats(t, httpURL)
			wc := dialWire(t, wireAddr)
			wc.send(t, frame)
			f := wc.next(t)
			if f.Type != wire.TypeError {
				t.Fatalf("reply type 0x%02x, want error", f.Type)
			}
			if code, msg, err := wire.DecodeError(f.Payload); err != nil || code != wire.CodeBadFrame || msg == "" {
				t.Fatalf("error frame = (%d, %q, %v), want code %d", code, msg, err, wire.CodeBadFrame)
			}
			if f, err := wc.dec.Next(); err == nil {
				t.Fatalf("frame 0x%02x after the error, want the connection closed", f.Type)
			}
			after := getStats(t, httpURL)
			if got := after["wire_decode_errors"].(float64) - before["wire_decode_errors"].(float64); got != 1 {
				t.Errorf("wire_decode_errors moved by %v, want 1", got)
			}
			for _, key := range []string{"stream_total", "edges_accepted", "queries_answered"} {
				if after[key] != before[key] {
					t.Errorf("%s went %v -> %v, want unchanged", key, before[key], after[key])
				}
			}
		})
	}
}

// TestWireFramesOnHTTPRefused: wire frames travel over TCP only. A valid
// ingest or query frame posted to the HTTP endpoints, typed as the wire
// content type the server once decoded, reaches the NDJSON/JSON decoder and
// is refused as malformed with the JSON error envelope, and nothing is
// ingested.
func TestWireFramesOnHTTPRefused(t *testing.T) {
	edges := testStream(100, 3)
	_, ts := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges))})
	if code, ir := postIngest(t, ts.URL, edges, true); code != http.StatusOK || ir.Accepted != len(edges) {
		t.Fatalf("seed ingest: %d %+v", code, ir)
	}
	before := getStats(t, ts.URL)

	cases := []struct {
		name, path string
		body       []byte
	}{
		{"ingest frame", "/ingest?sync=1", wire.AppendIngest(nil, edges[:4])},
		{"query frame", "/query", wire.AppendQuery(nil, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, wireContentType, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var env errorJSON
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("reply is not the JSON error envelope: %v", err)
			}
			if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" || env.Error == "" {
				t.Fatalf("%d %+v, want 400 with a bad_request envelope", resp.StatusCode, env)
			}
		})
	}
	after := getStats(t, ts.URL)
	for _, key := range []string{"stream_total", "edges_accepted"} {
		if after[key] != before[key] {
			t.Errorf("%s went %v -> %v on refused wire bodies, want unchanged", key, before[key], after[key])
		}
	}
}

// TestWireStatsCounters checks the wire counters surface in /stats.
func TestWireStatsCounters(t *testing.T) {
	edges := testStream(500, 23)
	g := buildTestGSketch(t, edges)
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g),
		gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 128}))})

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)
	wc.queryWire(t, []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})

	stats := getStats(t, httpURL)
	if got := stats["wire_frames"].(float64); got < 3 { // ingest + flush + query at minimum
		t.Fatalf("wire_frames = %v, want >= 3", got)
	}
	if got := stats["wire_bytes_in"].(float64); got < float64(len(edges)*wire.EdgeSize) {
		t.Fatalf("wire_bytes_in = %v, want >= %d", got, len(edges)*wire.EdgeSize)
	}
	if got := stats["wire_bytes_out"].(float64); got <= 0 {
		t.Fatalf("wire_bytes_out = %v, want > 0", got)
	}
	if got := stats["wire_decode_errors"].(float64); got != 0 {
		t.Fatalf("wire_decode_errors = %v, want 0", got)
	}

	// The server counts every reply byte the client read; a three-query
	// reply is 8 + 16 + 3·24 = 96 of them (version 1 wrote 128). The count
	// follows the write, so it is awaited rather than read at once.
	bytesOut := func() float64 { return getStats(t, httpURL)["wire_bytes_out"].(float64) }
	waitFor(t, "wire_bytes_out to reach the bytes read", func() bool { return bytesOut() == float64(wc.read) })
	before := wc.read
	wc.queryWire(t, []core.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}, {Src: 1, Dst: 102}})
	if got := wc.read - before; got != 96 {
		t.Fatalf("three-query reply is %d bytes, want 96", got)
	}
	waitFor(t, "wire_bytes_out to count the reply", func() bool { return bytesOut() == float64(wc.read) })

	// A corrupt frame on a fresh connection bumps the error counter.
	wc2 := dialWire(t, wireAddr)
	wc2.send(t, []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	wc2.next(t) // error frame
	waitFor(t, "decode error counter", func() bool {
		return getStats(t, httpURL)["wire_decode_errors"].(float64) == 1
	})
}

// TestWireShutdown checks Shutdown closes the wire listener and its
// connections: in-flight clients see EOF/reset, new dials are refused.
func TestWireShutdown(t *testing.T) {
	g := buildTestGSketch(t, testStream(100, 3))
	srv, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g))})

	wc := dialWire(t, wireAddr)
	wc.queryWire(t, []core.EdgeQuery{{Src: 1, Dst: 2}}) // connection is live
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.dec.Next(); err == nil {
		t.Fatal("connection survived shutdown")
	}
	if _, err := net.Dial("tcp", wireAddr); err == nil {
		t.Fatal("listener survived shutdown")
	} else if !errors.Is(err, syscall.ECONNREFUSED) {
		t.Logf("post-shutdown dial failed with %v (not ECONNREFUSED; acceptable)", err)
	}
}

// TestWireClusterFrames exercises the ping/pong pair against an
// engine-backed wire server, and checks that a frame of the retired
// snapshot range (0x0A–0x0D) is refused as an unparseable frame.
func TestWireClusterFrames(t *testing.T) {
	edges := testStream(800, 29)
	g := buildTestGSketch(t, edges[:300])
	_, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, core.NewConcurrent(g),
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 128})),
	})

	wc := dialWire(t, wireAddr)
	wc.ingestWire(t, edges)
	var total int64
	for _, e := range edges {
		total += e.Weight
	}

	// Ping reflects the applied stream and generation count.
	wc.send(t, wire.AppendPing(nil))
	f := wc.next(t)
	if f.Type != wire.TypePong {
		t.Fatalf("ping reply type 0x%02x, want pong", f.Type)
	}
	pong, err := wire.DecodePong(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if pong.StreamTotal != total || pong.Generations != 1 {
		t.Fatalf("pong = %+v, want stream total %d, 1 generation", pong, total)
	}

	// What was a snapshot-save request is now an unknown type.
	wc.send(t, []byte{wire.Version, 0x0A, 0, 0, 0, 0, 0, 0})
	f = wc.next(t)
	if f.Type != wire.TypeError {
		t.Fatalf("reserved-type reply 0x%02x, want error", f.Type)
	}
	if code, _, _ := wire.DecodeError(f.Payload); code != wire.CodeBadFrame {
		t.Fatalf("reserved-type code = %d, want CodeBadFrame", code)
	}
}
