package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

// The connection loop: one goroutine per connection, a long frame's fold
// beside it, and nothing admitted or answered until that fold has ended.

// serverGoroutines counts the live goroutines this package started.
func serverGoroutines() int {
	buf := make([]byte, 4<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "created by github.com/graphstream/gsketch/internal/server.")
}

// TestWireOneGoroutinePerConnection: an idle connection is one goroutine
// blocked in its read, not a reader and a worker; and closing the clients
// leaves none behind. A long frame's fold goroutine may still be exiting
// when the ping is answered, so the count is polled down to one per
// connection, and must reach exactly that.
func TestWireOneGoroutinePerConnection(t *testing.T) {
	const conns = 8
	_, _, wireAddr := newWireServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, testStream(500, 3)))})
	before := serverGoroutines()
	clients := make([]*wireClient, conns)
	for i := range clients {
		clients[i] = dialWire(t, wireAddr)
		clients[i].ingestFrame(t, testStream(2*longFrame, uint64(i)))
		clients[i].ping(t) // answered after the long frame's fold: the loop is idle in its read
	}
	waitFor(t, fmt.Sprintf("%d idle connections to run %d goroutines", conns, conns),
		func() bool { return serverGoroutines()-before == conns })
	for _, c := range clients {
		c.conn.Close()
	}
	waitFor(t, "connection goroutines to exit", func() bool { return serverGoroutines() == before })
}

// heldSketch is a real sketch whose folds wait on gate: a test can hold a
// connection's fold open, then read what it folded.
type heldSketch struct {
	core.Estimator
	gate chan struct{}
}

func (h heldSketch) UpdateBatch(es []stream.Edge) {
	<-h.gate
	h.Estimator.UpdateBatch(es)
}

// TestWireLongFoldHoldsNextFrame holds a long frame's fold. The connection
// reads and decodes the next frame meanwhile, but neither admits nor
// answers it until the fold ends, so one connection never has two frames
// in flight; after that, a query on the same connection sees both frames
// without a flush.
func TestWireLongFoldHoldsNextFrame(t *testing.T) {
	edges := testStream(longFrame+64, 83)
	long, short := edges[:longFrame], edges[longFrame:]
	gate := make(chan struct{})
	srv, _, wireAddr := newWireServer(t, Config{
		Engine: testEngine(t, heldSketch{Estimator: core.NewConcurrent(buildTestGSketch(t, edges)), gate: gate}),
	})
	open := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)

	wc := dialWire(t, wireAddr)
	if acc, rej := wc.ingestFrame(t, long); acc != len(long) || rej != 0 {
		t.Fatalf("long frame: ack (%d, %d), want (%d, 0)", acc, rej, len(long))
	}
	wc.send(t, wire.AppendIngest(nil, short))
	waitFor(t, "the next frame to be read", func() bool { return srv.stats.wireFrames.Value() == 2 })
	if err := wc.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if f, err := wc.dec.Next(); err == nil {
		t.Fatalf("reply type 0x%02x to the next frame while the long fold is held", f.Type)
	}
	if err := wc.conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if st := srv.Engine().IngestStats(); st.Inflight != 1 || st.EdgesApplied != 0 {
		t.Fatalf("long fold held: inflight %d, %d edges applied; want the one long frame in flight, none applied", st.Inflight, st.EdgesApplied)
	}
	if got := srv.stats.edgesAccepted.Value(); got != int64(len(long)) {
		t.Fatalf("%d edges admitted while the long fold is held, want the long frame's %d", got, len(long))
	}

	open()
	f := wc.next(t)
	if acc, rej, err := wire.DecodeAck(f.Payload); f.Type != wire.TypeAck || err != nil || acc != len(short) || rej != 0 {
		t.Fatalf("next frame: reply type 0x%02x ack (%d, %d, %v), want ack (%d, 0)", f.Type, acc, rej, err, len(short))
	}
	ref := buildTestGSketch(t, edges)
	ref.UpdateBatch(edges)
	qs := make([]core.EdgeQuery, len(edges))
	for i, e := range edges {
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	want := ref.EstimateBatch(qs)
	for i, r := range wc.queryWire(t, qs) {
		if r.Estimate != want[i].Estimate || r.StreamTotal != weightOf(edges) {
			t.Fatalf("query %d: estimate %d of stream %d, want %d of %d: a frame was not folded before the query",
				i, r.Estimate, r.StreamTotal, want[i].Estimate, weightOf(edges))
		}
	}
}

// TestWireMixedFramesRace runs connections that interleave 256- and
// 8192-edge frames with queries, each worker dialing a fresh connection per
// round, so the edge buffers that long folds take over are pooled and drawn
// again by other connections while folds run. It must end at the exact
// Count and at the snapshot a TryIngest engine makes of the same stream.
func TestWireMixedFramesRace(t *testing.T) {
	const workers, rounds = 3, 3
	frames := []int{256, 8192, 256, 8192}
	perConn := 0
	for _, n := range frames {
		perConn += n
	}
	edges := testStream(workers*rounds*perConn, 109)
	cfg := func() Config {
		return Config{Engine: testEngine(t, buildTestGSketch(t, edges[:1500]),
			gsketch.WithIngest(ingest.Config{Workers: 2, BatchSize: 512, QueueDepth: 2}))}
	}
	digest := func(eng *gsketch.Engine) string {
		var buf bytes.Buffer
		if _, err := eng.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		return hex.EncodeToString(sum[:])
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

	srv, _, wireAddr := newWireServer(t, cfg())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var res []core.Result
			for r := 0; r < rounds; r++ {
				cl, err := wire.Dial(wireAddr)
				if err != nil {
					t.Error(err)
					return
				}
				mine := edges[(w*rounds+r)*perConn:]
				for _, n := range frames {
					if acc, rej, err := cl.Ingest(mine[:n]); acc != n || rej != 0 || err != nil {
						t.Errorf("worker %d round %d: ack (%d, %d, %v) for %d edges", w, r, acc, rej, err, n)
						cl.Close()
						return
					}
					qs := []core.EdgeQuery{{Src: mine[0].Src, Dst: mine[0].Dst}, {Src: mine[n-1].Src, Dst: mine[n-1].Dst}}
					if res, err = cl.Query(res[:0], qs); err != nil || len(res) != len(qs) {
						t.Errorf("worker %d round %d: %d results, %v", w, r, len(res), err)
						cl.Close()
						return
					}
					mine = mine[n:]
				}
				cl.Close()
			}
		}(w)
	}
	wg.Wait()
	drainEngine(t, srv.Engine())
	if got, want := srv.Engine().Estimator().Count(), weightOf(edges); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if got, want := digest(srv.Engine()), digest(ref.Engine()); got != want {
		t.Fatalf("snapshot digest %s, want %s (the TryIngest engine's)", got, want)
	}
}
