package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// The wire connection as its own ingest worker: what an ack promises, what
// still is refused, and that a frame admitted but not yet folded is neither
// dropped nor waited for forever, whoever races it.

// ingestFrame sends one ingest frame and returns the ack.
func (c *wireClient) ingestFrame(t *testing.T, edges []stream.Edge) (accepted, rejected int) {
	t.Helper()
	c.buf = wire.AppendIngest(c.buf[:0], edges)
	c.send(t, c.buf)
	f := c.next(t)
	if f.Type != wire.TypeAck {
		t.Fatalf("ingest reply type 0x%02x, want ack", f.Type)
	}
	accepted, rejected, err := wire.DecodeAck(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return accepted, rejected
}

func (c *wireClient) flush(t *testing.T) {
	t.Helper()
	c.send(t, wire.AppendFlush(nil))
	if f := c.next(t); f.Type != wire.TypeFlushAck {
		t.Fatalf("flush reply type 0x%02x, want flush ack", f.Type)
	}
}

func (c *wireClient) ping(t *testing.T) wire.Pong {
	t.Helper()
	c.send(t, wire.AppendPing(nil))
	f := c.next(t)
	if f.Type != wire.TypePong {
		t.Fatalf("ping reply type 0x%02x, want pong", f.Type)
	}
	p, err := wire.DecodePong(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// gated is a gateEstimator whose gate opens once — by the test, or at
// cleanup, so that a test that fails early does not leave a fold, and with
// it the server's shutdown, blocked. Register the cleanup after the server's
// (cleanups run last-registered first).
type gated struct {
	*gateEstimator
	once sync.Once
}

func newGated() *gated { return &gated{gateEstimator: &gateEstimator{gate: make(chan struct{})}} }

func (g *gated) open() { g.once.Do(func() { close(g.gate) }) }

func weightOf(edges []stream.Edge) (total int64) {
	for _, e := range edges {
		total += e.Weight
	}
	return total
}

// holds starts fn on its own goroutine and fails the test if it returns
// within the grace period; the channel is closed when it finally does.
func holds(t *testing.T, what string, fn func()) <-chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		t.Fatalf("%s returned over an admitted, unfolded frame", what)
	case <-time.After(50 * time.Millisecond):
	}
	return done
}

func released(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still waiting after the frame was folded", what)
	}
}

// TestWireRegistersThenAcksThenFolds pins the order of the three steps on
// a connection whose writes block until the client reads (net.Pipe), so the
// moment between them can be held open. With the ack written but unread:
// the frame is already in flight — a drain on any connection waits for it —
// and not yet folded. Registration after the ack would show nothing in
// flight here; a fold before the ack would show the edges applied.
func TestWireRegistersThenAcksThenFolds(t *testing.T) {
	edges := testStream(2048, 59)
	srv, _ := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges))})
	client, server := net.Pipe()
	handled := make(chan struct{})
	go func() {
		defer close(handled)
		srv.handleWireConn(server)
	}()
	go func() { _, _ = client.Write(wire.AppendIngest(nil, edges)) }()

	// The accepted counter moves right after the admission, before the ack.
	waitFor(t, "admission", func() bool { return srv.stats.edgesAccepted.Value() == int64(len(edges)) })
	time.Sleep(20 * time.Millisecond) // were the fold ahead of the ack, it would land now
	st := srv.Engine().IngestStats()
	if st.Inflight != 1 || st.QueueDepth != 0 {
		t.Fatalf("ack written, unread: inflight %d, queue depth %d; want the frame registered (1) and not queued (0)", st.Inflight, st.QueueDepth)
	}
	if st.EdgesApplied != 0 || srv.Engine().Estimator().Count() != 0 {
		t.Fatalf("ack unread, yet %d edges applied: the fold must follow the ack", st.EdgesApplied)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := srv.Engine().Drain(ctx); err == nil {
		t.Fatal("Drain returned over an acked, unfolded frame")
	}
	cancel()

	f, err := wire.NewDecoder(client).Next()
	if err != nil || f.Type != wire.TypeAck {
		t.Fatalf("reply: type 0x%02x, %v; want ack", f.Type, err)
	}
	if acc, rej, _ := wire.DecodeAck(f.Payload); acc != len(edges) || rej != 0 {
		t.Fatalf("ack (%d, %d), want (%d, 0)", acc, rej, len(edges))
	}
	drainEngine(t, srv.Engine())
	if got, want := srv.Engine().Estimator().Count(), weightOf(edges); got != want {
		t.Fatalf("Count after the drain = %d, want %d", got, want)
	}
	client.Close()
	<-handled
}

// TestWireAckedEdgesVisibleAfterFlushOnOtherConn is the same promise end to
// end, over TCP: connection A ingests and is acked; connection B flushes,
// then reads. B must see every edge of A, every time.
func TestWireAckedEdgesVisibleAfterFlushOnOtherConn(t *testing.T) {
	const rounds, frame = 200, 2048
	edges := testStream(rounds*frame, 61)
	srv, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, edges[:2000])),
	})
	a, b := dialWire(t, wireAddr), dialWire(t, wireAddr)
	var want int64
	for r := 0; r < rounds; r++ {
		batch := edges[r*frame : (r+1)*frame]
		if acc, rej := a.ingestFrame(t, batch); acc != frame || rej != 0 {
			t.Fatalf("round %d: ack (%d, %d), want (%d, 0)", r, acc, rej, frame)
		}
		want += weightOf(batch)
		b.flush(t)
		if got := srv.Engine().Estimator().Count(); got != want {
			t.Fatalf("round %d: Count after B's flush = %d, want %d: an acked frame was not covered by the drain", r, got, want)
		}
		if got := b.ping(t).StreamTotal; got != want {
			t.Fatalf("round %d: pong stream total %d, want %d", r, got, want)
		}
	}
	if st := srv.Engine().IngestStats(); st.Sheds != 0 || st.EdgesApplied != rounds*frame || st.BatchesApplied != rounds {
		t.Fatalf("ingest stats %+v, want %d edges in %d connection-folded batches and no sheds", *st, rounds*frame, rounds)
	}
}

// TestWireFramesSnapshotIdenticalToTryIngest: a stream sent over one wire
// connection in 1-, 256- and 8192-edge frames leaves, on the default plain
// CountMin configuration, a snapshot byte-identical to the same stream
// through TryIngest — only who calls UpdateBatch changed, never what is
// added to which cell. On the way: an engine backend never sheds a wire
// frame, and no wire frame ever enters the ingest queue.
func TestWireFramesSnapshotIdenticalToTryIngest(t *testing.T) {
	edges := testStream(12_000, 67)
	digest := func(eng *gsketch.Engine) string {
		var buf bytes.Buffer
		if _, err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	cfg := func() Config {
		return Config{
			Engine: testEngine(t, buildTestGSketch(t, edges[:1500]),
				gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 512, QueueDepth: 2})),
		}
	}

	ref, _ := newTestServer(t, cfg())
	for rest := edges; len(rest) > 0; {
		n, err := ref.Engine().TryIngest(rest)
		if err != nil && n == 0 {
			time.Sleep(100 * time.Microsecond) // queue full: the workers are behind
		}
		rest = rest[n:]
	}
	drainEngine(t, ref.Engine())
	want := digest(ref.Engine())

	for _, frame := range []int{1, 256, 8192} {
		t.Run(fmt.Sprintf("frame%d", frame), func(t *testing.T) {
			srv, _, wireAddr := newWireServer(t, cfg())
			wc := dialWire(t, wireAddr)
			for lo := 0; lo < len(edges); lo += frame {
				batch := edges[lo:min(lo+frame, len(edges))]
				if acc, rej := wc.ingestFrame(t, batch); acc != len(batch) || rej != 0 {
					t.Fatalf("ack (%d, %d) for a %d-edge frame: an engine backend admits a wire frame whole", acc, rej, len(batch))
				}
				// One connection admits its next frame only after folding the
				// last, so at most one frame is in flight and none is queued.
				if st := srv.Engine().IngestStats(); st.QueueDepth != 0 || st.Inflight > 1 {
					t.Fatalf("wire frame entered the ingest queue: depth %d, inflight %d", st.QueueDepth, st.Inflight)
				}
			}
			wc.flush(t)
			if st := srv.Engine().IngestStats(); st.Sheds != 0 || st.EdgesApplied != int64(len(edges)) {
				t.Fatalf("sheds %d, edges applied %d; want 0 and %d", st.Sheds, st.EdgesApplied, len(edges))
			}
			if got := digest(srv.Engine()); got != want {
				t.Fatalf("snapshot digest %s, want %s (the TryIngest engine's)", got, want)
			}
		})
	}
}

// TestWireAdmittedFrameAgainstShutdown holds a frame between its ack and its
// fold (the estimator blocks on a gate). The ack arrives regardless — it is
// written first; the frame is in flight but in no queue; HTTP ingest beside
// it still goes through the queue, its handler folding nothing; a second
// connection's frame is acked beside it; and Shutdown neither returns before
// either fold nor loses one.
func TestWireAdmittedFrameAgainstShutdown(t *testing.T) {
	dest := newGated()
	srv, httpURL, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, dest,
			gsketch.WithIngest(ingest.Config{Workers: 1, BatchSize: 4, QueueDepth: 2})),
	})
	t.Cleanup(dest.open)
	edges := testStream(64, 3)
	wc := dialWire(t, wireAddr)
	if acc, rej := wc.ingestFrame(t, edges[:32]); acc != 32 || rej != 0 {
		t.Fatalf("ack (%d, %d) with the fold blocked, want (32, 0)", acc, rej)
	}
	st := srv.Engine().IngestStats()
	if st.Inflight != 1 || st.QueueDepth != 0 || st.BatchesApplied != 0 {
		t.Fatalf("acked, unfolded frame: %+v, want one batch in flight and nothing queued or applied", *st)
	}

	// The NDJSON body is answered while no fold can finish: the handler
	// queued its edges for the (blocked) worker. A second connection's
	// frame is acked too, and its fold blocks beside the first.
	if code, ir := postIngest(t, httpURL, edges[32:36], false); code != http.StatusOK || ir.Accepted != 4 {
		t.Fatalf("NDJSON ingest beside a blocked fold: %d %+v", code, ir)
	}
	if acc, rej := dialWire(t, wireAddr).ingestFrame(t, edges[36:40]); acc != 4 || rej != 0 {
		t.Fatalf("second connection's ack (%d, %d) beside a blocked fold, want (4, 0)", acc, rej)
	}
	if got := dest.edges.Load(); got != 0 {
		t.Fatalf("%d edges folded behind a closed gate", got)
	}

	down := holds(t, "Shutdown", func() { _ = srv.Close() })
	dest.open()
	released(t, "Shutdown", down)
	if got := dest.edges.Load(); got != 40 {
		t.Fatalf("%d edges folded by the time Shutdown returned, want 40", got)
	}
}

// TestWireAdmittedFrameAgainstCloseAndRestore: Engine.Close, and a restore
// that displaces the pipeline the frame is registered in, wait for the
// connection's fold; the fold lands in the estimator the frame was admitted
// to before either returns, and the restored estimator never sees it.
func TestWireAdmittedFrameAgainstCloseAndRestore(t *testing.T) {
	edges := testStream(3000, 71)
	donor := buildTestGSketch(t, edges[:1000])
	donor.UpdateBatch(edges)
	var snap bytes.Buffer
	if _, err := donor.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}

	t.Run("restore", func(t *testing.T) {
		dest := newGated()
		srv, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, dest,
			gsketch.WithIngest(ingest.Config{Workers: 1}))})
		t.Cleanup(dest.open)
		wc := dialWire(t, wireAddr)
		if acc, rej := wc.ingestFrame(t, edges[:100]); acc != 100 || rej != 0 {
			t.Fatalf("ack (%d, %d), want (100, 0)", acc, rej)
		}
		var status int
		restored := holds(t, "snapshot restore", func() {
			resp, err := http.Post(httpURL+"/snapshot/restore", "application/octet-stream", bytes.NewReader(snap.Bytes()))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			status = resp.StatusCode
		})
		dest.open()
		released(t, "snapshot restore", restored)
		if status != http.StatusOK {
			t.Fatalf("restore status %d", status)
		}
		if got := dest.edges.Load(); got != 100 {
			t.Fatalf("displaced estimator folded %d edges by the time restore returned, want 100", got)
		}
		if got := srv.Engine().Estimator().Count(); got != donor.Count() {
			t.Fatalf("restored Count = %d, want the snapshot's %d", got, donor.Count())
		}
		// The same connection goes on, into the restored state.
		if acc, rej := wc.ingestFrame(t, edges[:10]); acc != 10 || rej != 0 {
			t.Fatalf("post-restore ack (%d, %d), want (10, 0)", acc, rej)
		}
		wc.flush(t)
		if got, want := srv.Engine().Estimator().Count(), donor.Count()+weightOf(edges[:10]); got != want {
			t.Fatalf("post-restore Count = %d, want %d", got, want)
		}
		if got := dest.edges.Load(); got != 100 {
			t.Fatalf("a frame admitted after the restore reached the displaced estimator (%d edges)", got)
		}
	})

	t.Run("close", func(t *testing.T) {
		dest := newGated()
		srv, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, dest,
			gsketch.WithIngest(ingest.Config{Workers: 1}))})
		t.Cleanup(dest.open)
		wc := dialWire(t, wireAddr)
		if acc, rej := wc.ingestFrame(t, edges[:100]); acc != 100 || rej != 0 {
			t.Fatalf("ack (%d, %d), want (100, 0)", acc, rej)
		}
		closed := holds(t, "Engine.Close", func() { _ = srv.Engine().Close() })
		dest.open()
		released(t, "Engine.Close", closed)
		if got := dest.edges.Load(); got != 100 {
			t.Fatalf("%d edges folded by the time Close returned, want 100", got)
		}
		// A closed engine refuses the next frame, typed; nothing is folded.
		wc.send(t, wire.AppendIngest(nil, edges[:10]))
		f := wc.next(t)
		if f.Type != wire.TypeError {
			t.Fatalf("ingest on a closed engine: type 0x%02x, want error", f.Type)
		}
		if code, _, _ := wire.DecodeError(f.Payload); code != wire.CodeClosed {
			t.Fatalf("ingest on a closed engine: code %d, want CodeClosed", code)
		}
		if got := dest.edges.Load(); got != 100 {
			t.Fatalf("a refused frame was folded (%d edges)", got)
		}
	})
}

// TestWireTenantOverQuotaAcksPrefix: rejected > 0 survives for what really
// is refused. A tenant over its edge rate gets the accepted-prefix ack, the
// prefix is folded, nothing of the suffix is.
func TestWireTenantOverQuotaAcksPrefix(t *testing.T) {
	_, baseURL, wireAddr := newTenantServer(t, tenant.Config{})
	createTenant(t, baseURL, "capped", `{"max_edges_per_sec":0.001,"burst":100}`)
	edges := testStream(300, 73)

	wc := dialWire(t, wireAddr)
	wc.send(t, wire.AppendTenantSelect(nil, "capped"))
	if f := wc.next(t); f.Type != wire.TypeTenantAck {
		t.Fatalf("select: type 0x%02x, want tenant ack", f.Type)
	}
	if acc, rej := wc.ingestFrame(t, edges); acc != 100 || rej != 200 {
		t.Fatalf("over-quota ack (%d, %d), want (100, 200)", acc, rej)
	}
	if acc, rej := wc.ingestFrame(t, edges[100:]); acc != 0 || rej != 200 {
		t.Fatalf("retry with an empty bucket: ack (%d, %d), want (0, 200)", acc, rej)
	}
	wc.flush(t)
	if got, want := wc.ping(t).StreamTotal, weightOf(edges[:100]); got != want {
		t.Fatalf("stream total %d, want the accepted prefix's %d", got, want)
	}
	resp, body := doReq(t, http.MethodGet, baseURL+"/t/capped", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"rate_limited":2`) || !strings.Contains(string(body), `"edges_accepted":100`) {
		t.Fatalf("GET /t/capped: %d %s, want rate_limited 2 and edges_accepted 100", resp.StatusCode, body)
	}
}

// TestWireTenantEvictRacesFolds runs a connection's ingest frames against a
// one-slot residency cap that another client keeps contending for: every
// eviction snapshots and closes the engine the connection is admitting
// into, over and over. Whatever was acked is in the tenant at the end.
func TestWireTenantEvictRacesFolds(t *testing.T) {
	const rounds, frame = 60, 256
	srv, baseURL, wireAddr := newTenantServer(t, tenant.Config{MaxResident: 1})
	createTenant(t, baseURL, "a", "")
	createTenant(t, baseURL, "b", "")
	edges := testStream(rounds*frame, 79)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // touching b evicts a, whose next frame evicts b
		defer wg.Done()
		h, err := srv.tenants.Tenant("b")
		if err != nil {
			t.Error(err)
			return
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := h.QueryBatch([]core.EdgeQuery{{Src: 1, Dst: 2}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	wc := dialWire(t, wireAddr)
	wc.send(t, wire.AppendTenantSelect(nil, "a"))
	if f := wc.next(t); f.Type != wire.TypeTenantAck {
		t.Fatalf("select: type 0x%02x, want tenant ack", f.Type)
	}
	for r := 0; r < rounds; r++ {
		if acc, rej := wc.ingestFrame(t, edges[r*frame:(r+1)*frame]); acc != frame || rej != 0 {
			t.Fatalf("round %d: ack (%d, %d), want (%d, 0)", r, acc, rej, frame)
		}
	}
	close(stop)
	wg.Wait()
	wc.flush(t)
	if got, want := wc.ping(t).StreamTotal, weightOf(edges); got != want {
		t.Fatalf("stream total %d after %d evictions, want every acked edge: %d",
			got, srv.tenants.RegistryStats().Evictions, want)
	}
	if ev := srv.tenants.RegistryStats().Evictions; ev == 0 {
		t.Fatal("no eviction raced the frames; the test exercised nothing")
	}
}

// TestWireNegativeWeightRefusedEverywhere is the regression test for the
// remote crash: a negative weight used to reach the sketch, whose panic, on
// a goroutine nobody recovers, ended the process. Each transport now turns
// the request away typed, ingests nothing, and the server keeps serving.
func TestWireNegativeWeightRefusedEverywhere(t *testing.T) {
	edges := testStream(500, 97)
	_, httpURL, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges))})
	if code, ir := postIngest(t, httpURL, edges, true); code != http.StatusOK || ir.Accepted != len(edges) {
		t.Fatalf("seed ingest: %d %+v", code, ir)
	}
	want := getStats(t, httpURL)["stream_total"].(float64)

	for _, w := range []int64{-1, -5, math.MinInt64} {
		// NDJSON, the recognizer's shape and one only encoding/json takes.
		for _, line := range []string{
			fmt.Sprintf(`{"src":1,"dst":2,"weight":%d}`, w),
			fmt.Sprintf(`{"src":1,"dst":2,"weight":%d,"note":"x"}`, w),
		} {
			resp, err := http.Post(httpURL+"/ingest?sync=1", "application/x-ndjson",
				strings.NewReader(`{"src":1,"dst":2}`+"\n"+line+"\n"))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "line 2: negative weight") {
				t.Fatalf("NDJSON %s: %d %s, want 400 line 2: negative weight", line, resp.StatusCode, body)
			}
		}

		bad := wire.AppendIngest(nil, []stream.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 1, Dst: 2, Weight: w}})

		// Wire over TCP: the typed error, then the connection ends.
		wc := dialWire(t, wireAddr)
		wc.send(t, bad)
		f := wc.next(t)
		if f.Type != wire.TypeError {
			t.Fatalf("wire, weight %d: type 0x%02x, want error", w, f.Type)
		}
		if code, msg, _ := wire.DecodeError(f.Payload); code != wire.CodeBadFrame || !strings.Contains(msg, "negative weight") {
			t.Fatalf("wire, weight %d: (%d, %q), want CodeBadFrame naming the negative weight", w, code, msg)
		}
	}

	resp, err := http.Get(httpURL + "/healthz")
	if err != nil {
		t.Fatalf("server gone after negative weights: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz %d after negative weights", resp.StatusCode)
	}
	wc := dialWire(t, wireAddr)
	wc.flush(t)
	if got := float64(wc.ping(t).StreamTotal); got != want {
		t.Fatalf("stream total %v after refused requests, want the unchanged %v", got, want)
	}
	if got := getStats(t, httpURL)["stream_total"].(float64); got != want {
		t.Fatalf("/stats stream_total %v after refused requests, want %v", got, want)
	}
}

// TestWireQueryAllocsPerQuery is the read-side guard over a real loopback
// connection: the connection answers every query frame out of the one
// result buffer it owns, parses into buffers it keeps,
// and the client here reuses its own — so a warm 512-query round trip
// allocates (nearly) nothing on either side.
func TestWireQueryAllocsPerQuery(t *testing.T) {
	const n = 512
	edges := testStream(4096, 37)
	g := buildTestGSketch(t, edges)
	g.UpdateBatch(edges)
	_, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, core.NewConcurrent(g))})
	conn, err := net.Dial("tcp", wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	cl := wire.NewClient(conn)
	defer cl.Close()

	qs := make([]core.EdgeQuery, n)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	var res []core.Result
	ask := func() {
		if res, err = cl.Query(res[:0], qs); err != nil || len(res) != n {
			t.Fatalf("query: %d results, %v", len(res), err)
		}
	}
	ask() // warm the connection's buffers on both sides
	perQuery := testing.AllocsPerRun(50, ask) / n
	t.Logf("allocs/query over wire: %.4f", perQuery)
	if perQuery > 0.01 && !raceEnabled {
		t.Errorf("wire query allocates %.4f allocs/query, want <= 0.01 — the connection no longer owns its result buffer, or a frame buffer is no longer pooled", perQuery)
	}
}

// TestWireIngestAllocsPerEdge is the write-side guard over a real loopback
// connection: a frame is decoded into a pooled buffer, admitted by value,
// acked out of a pooled frame buffer and folded out of the buffer it was
// decoded into — no copy into the ingest queue, no closure, nothing per
// frame.
func TestWireIngestAllocsPerEdge(t *testing.T) {
	const n = 2048
	edges := testStream(n, 31)
	_, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, edges)),
	})
	cl, err := wire.Dial(wireAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	send := func() {
		if acc, rej, err := cl.Ingest(edges); acc != n || rej != 0 || err != nil {
			t.Fatalf("ack (%d, %d, %v), want (%d, 0)", acc, rej, err, n)
		}
	}
	send()
	send() // warm the pools on both sides: a fold may still hold the first buffer
	perEdge := testing.AllocsPerRun(50, send) / n
	t.Logf("allocs/edge over wire: %.5f", perEdge)
	if perEdge > 0.005 && !raceEnabled {
		t.Errorf("wire ingest allocates %.5f allocs/edge, want <= 0.005 — a frame is being copied into fresh buffers, or admitted through a closure", perEdge)
	}
}

// TestWireIngestFlushAcrossConnectionsRace is the race detector's view of
// the new arm: several connections folding their own frames under the
// stripe locks beside a flusher and a reader, nothing lost.
func TestWireIngestFlushAcrossConnectionsRace(t *testing.T) {
	const conns, rounds, frame = 3, 40, 512
	edges := testStream(conns*rounds*frame, 101)
	srv, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, edges[:2000]),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 128, QueueDepth: 2})),
	})
	stop := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		defer side.Done()
		cl, err := wire.Dial(wireAddr)
		if err != nil {
			t.Error(err)
			return
		}
		defer cl.Close()
		var res []core.Result
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.Flush(); err != nil {
				t.Error(err)
				return
			}
			if res, err = cl.Query(res[:0], []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := wire.Dial(wireAddr)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			mine := edges[c*rounds*frame : (c+1)*rounds*frame]
			for r := 0; r < rounds; r++ {
				if acc, rej, err := cl.Ingest(mine[r*frame : (r+1)*frame]); acc != frame || rej != 0 || err != nil {
					t.Errorf("conn %d round %d: ack (%d, %d, %v), want (%d, 0)", c, r, acc, rej, err, frame)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	side.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Engine().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Engine().Estimator().Count(), weightOf(edges); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}
