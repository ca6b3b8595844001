// Cluster tests live in an external package: they stand up real
// internal/server wire listeners per shard, and server imports cluster.
package cluster_test

import (
	"context"
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/cluster"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/server"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 3000,
			Dst:    rng.Uint64() % 9000,
			Weight: int64(rng.Uint64()%4) + 1,
			Time:   int64(i),
		}
	}
	return edges
}

func testSketchConfig() gsketch.Config {
	return gsketch.Config{TotalBytes: 64 << 10, Seed: 99}
}

// testShard is one in-process cluster node: a full engine behind a
// loopback wire listener, exactly what gsketch-serve -wire-addr runs.
type testShard struct {
	srv  *server.Server
	addr string
}

// startShard boots an engine (same config/sample/seed as every other
// shard, so routing agrees) and serves it on a loopback wire listener.
func startShard(t *testing.T, sample []stream.Edge) *testShard {
	t.Helper()
	return serveShard(t, "127.0.0.1:0", gsketch.WithSample(sample))
}

// serveShard opens an engine with opts and serves it on a wire listener
// bound to addr.
func serveShard(t *testing.T, addr string, opts ...gsketch.Option) *testShard {
	t.Helper()
	opts = append(opts, gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256}))
	eng, err := gsketch.Open(testSketchConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	go srv.ServeWire(ln) //nolint:errcheck // ErrServerClosed after shutdown
	t.Cleanup(func() { srv.Close() })
	return &testShard{srv: srv, addr: ln.Addr().String()}
}

// startCluster boots n shards plus a coordinator routing over them.
func startCluster(t *testing.T, n int, sample []stream.Edge, cfg cluster.Config) (*cluster.Coordinator, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	for i := range shards {
		shards[i] = startShard(t, sample)
		cfg.Addrs = append(cfg.Addrs, shards[i].addr)
	}
	if cfg.Router == nil {
		router, err := core.BuildGSketch(testSketchConfig(), sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Router = router
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord, shards
}

// clusterIngest pushes a stream through TryIngest, retrying shed suffixes.
func clusterIngest(t *testing.T, coord *cluster.Coordinator, edges []stream.Edge) {
	t.Helper()
	for rest := edges; len(rest) > 0; {
		n, err := coord.TryIngest(rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, gsketch.ErrIngestQueueFull) {
			t.Fatalf("TryIngest: %v", err)
		}
		if len(rest) > 0 && errors.Is(err, gsketch.ErrIngestQueueFull) {
			time.Sleep(time.Millisecond)
		}
	}
}

// drain flushes the coordinator's buffers through every shard's pipeline.
func drain(t *testing.T, coord *cluster.Coordinator) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// testQueries mixes sampled vertices (partition-routed) with vertex IDs
// far outside the sample range (outlier-routed) so both read paths are
// exercised.
func testQueries(edges []stream.Edge) []core.EdgeQuery {
	qs := make([]core.EdgeQuery, 0, 256)
	for i := 0; i < 200 && i < len(edges); i++ {
		e := edges[i*7%len(edges)]
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	for i := 0; i < 32; i++ {
		qs = append(qs, core.EdgeQuery{Src: 1 << 40, Dst: uint64(i)}) // absent from any sample
	}
	return qs
}

// TestClusterEquivalence is the acceptance check of the subsystem: a
// 4-shard loopback cluster fed a stream through the coordinator answers a
// mixed query batch with estimates and ε·N_i bounds byte-identical to a
// single-node engine fed the same stream, and the folded bound equals the
// sum of the per-shard bounds (so it is never looser than that sum).
func TestClusterEquivalence(t *testing.T) {
	edges := testStream(20_000, 11)
	sample := edges[:2000]

	coord, shards := startCluster(t, 4, sample, cluster.Config{
		BatchEdges:   512,
		PingInterval: -1, // probing adds nothing here
	})
	clusterIngest(t, coord, edges)
	drain(t, coord)

	single, err := gsketch.Open(testSketchConfig(),
		gsketch.WithSample(sample),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256}))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := single.Ingest(ctx, edges...); err != nil {
		t.Fatal(err)
	}
	if err := single.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	qs := testQueries(edges)
	got, err := coord.QueryBatch(qs)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	want := single.QueryBatch(qs)
	if len(got) != len(want) {
		t.Fatalf("cluster answered %d results, want %d", len(got), len(want))
	}

	// Per-shard answers, queried directly over the wire, to check the fold.
	perShard := make([][]core.Result, len(shards))
	for i, sh := range shards {
		cl, err := wire.Dial(sh.addr)
		if err != nil {
			t.Fatal(err)
		}
		perShard[i], err = cl.Query(nil, qs)
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	for i := range got {
		g, w := got[i], want[i]
		if g.Estimate != w.Estimate {
			t.Errorf("query %d (%d,%d): estimate %d, single node %d",
				i, qs[i].Src, qs[i].Dst, g.Estimate, w.Estimate)
		}
		if g.ErrorBound != w.ErrorBound {
			t.Errorf("query %d: bound %g, single node %g", i, g.ErrorBound, w.ErrorBound)
		}
		if g.StreamTotal != w.StreamTotal {
			t.Errorf("query %d: stream total %d, single node %d", i, g.StreamTotal, w.StreamTotal)
		}
		if g.Partition != w.Partition || g.Outlier != w.Outlier {
			t.Errorf("query %d: provenance (%d,%v), single node (%d,%v)",
				i, g.Partition, g.Outlier, w.Partition, w.Outlier)
		}
		var sum float64
		for _, res := range perShard {
			sum += res[i].ErrorBound
		}
		if g.ErrorBound > sum+1e-9 {
			t.Errorf("query %d: bound %g looser than per-shard sum %g", i, g.ErrorBound, sum)
		}
		// Union-bound confidence: never better than one shard's, never
		// worse than 1 - N·δ.
		delta := 1 - w.Confidence
		if g.Confidence > w.Confidence || g.Confidence < 1-float64(len(shards))*delta-1e-9 {
			t.Errorf("query %d: confidence %g outside [%g, %g]",
				i, g.Confidence, 1-float64(len(shards))*delta, w.Confidence)
		}
		if math.IsNaN(g.Confidence) {
			t.Errorf("query %d: NaN confidence", i)
		}
	}
}

// TestClusterDialFailure checks that New refuses to start degraded: a
// topology naming an unreachable shard fails with a *ShardError
// identifying it.
func TestClusterDialFailure(t *testing.T) {
	sample := testStream(500, 3)
	sh := startShard(t, sample)
	router, err := core.BuildGSketch(testSketchConfig(), sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A listener that is closed again immediately: the port is real but
	// nothing accepts.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	_, err = cluster.New(cluster.Config{
		Addrs:       []string{sh.addr, deadAddr},
		Router:      router,
		DialTimeout: 500 * time.Millisecond,
	})
	var se *cluster.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("New with dead shard = %v, want *ShardError", err)
	}
	if se.ID != 1 || se.Addr != deadAddr {
		t.Fatalf("ShardError identifies (%d, %s), want (1, %s)", se.ID, se.Addr, deadAddr)
	}
}

// TestClusterShardDeath kills one shard mid-run and checks the typed
// partial-failure surface: queries return the surviving shards' partial
// fold alongside a *PartialError, the shard stays degraded for later
// queries, and ingest routed at it sheds with a *ShardError wrapping
// ErrShardDown.
func TestClusterShardDeath(t *testing.T) {
	edges := testStream(4000, 7)
	sample := edges[:1000]
	coord, shards := startCluster(t, 2, sample, cluster.Config{
		BatchEdges:   256,
		PingInterval: -1, // no prober: nothing revives the shard behind our back
		OpTimeout:    2 * time.Second,
	})
	clusterIngest(t, coord, edges)
	drain(t, coord)

	qs := testQueries(edges)[:50]
	if _, err := coord.QueryBatch(qs); err != nil {
		t.Fatalf("healthy QueryBatch: %v", err)
	}

	// Kill shard 1 (server shutdown closes its listener and connections).
	shards[1].srv.Close()

	// The scatter hits the dead shard's connections and degrades it.
	res, err := coord.QueryBatch(qs)
	var pe *cluster.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("QueryBatch after shard death = %v, want *PartialError", err)
	}
	if len(pe.Failed) != 1 || pe.Failed[0].ID != 1 || pe.Shards != 2 {
		t.Fatalf("PartialError = %+v, want shard 1 of 2 failed", pe)
	}
	if len(res) != len(qs) {
		t.Fatalf("partial fold answered %d results, want %d from the surviving shard", len(res), len(qs))
	}

	// Degraded now: the next gather fails shard 1 fast, without a dial.
	if _, err := coord.QueryBatch(qs); !errors.As(err, &pe) || !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("QueryBatch on a degraded shard = %v, want *PartialError wrapping ErrShardDown", err)
	}

	// Ingest: edges owned by the dead shard shed at their exact prefix.
	downEdge, upEdge := findRoutedEdges(t, coord, edges)
	n, err := coord.TryIngest([]stream.Edge{upEdge, downEdge, upEdge})
	if !errors.Is(err, cluster.ErrShardDown) {
		t.Fatalf("TryIngest at dead shard err = %v, want ErrShardDown", err)
	}
	var se *cluster.ShardError
	if !errors.As(err, &se) || se.ID != 1 {
		t.Fatalf("TryIngest err = %v, want *ShardError for shard 1", err)
	}
	if n != 1 {
		t.Fatalf("TryIngest accepted %d, want prefix 1", n)
	}
}

// findRoutedEdges picks one edge owned by shard 1 (down in the test) and
// one owned by shard 0, by probing TryIngest-visible routing — avoiding
// any dependence on router internals.
func findRoutedEdges(t *testing.T, coord *cluster.Coordinator, edges []stream.Edge) (down, up stream.Edge) {
	t.Helper()
	var haveDown, haveUp bool
	for _, e := range edges {
		// Shard 1 is degraded: a single-edge offer either sheds with
		// ErrShardDown (owned by 1) or is buffered (owned by 0).
		n, err := coord.TryIngest([]stream.Edge{e})
		switch {
		case errors.Is(err, cluster.ErrShardDown):
			down, haveDown = e, true
		case err == nil && n == 1:
			up, haveUp = e, true
		}
		if haveDown && haveUp {
			return down, up
		}
	}
	t.Fatal("stream has no edges for both shards")
	return
}

// TestClusterCloseDrainsGathers closes the coordinator while query
// gathers are in flight: Close must wait them out (its write-lock
// acquisition is the drain barrier), after which every operation reports
// ErrClosed. Run with -race this is the coordinator's shutdown soundness
// test.
func TestClusterCloseDrainsGathers(t *testing.T) {
	edges := testStream(4000, 19)
	sample := edges[:1000]
	coord, _ := startCluster(t, 2, sample, cluster.Config{BatchEdges: 256})
	clusterIngest(t, coord, edges)

	qs := testQueries(edges)[:20]
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				res, err := coord.QueryBatch(qs)
				if errors.Is(err, cluster.ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("in-flight QueryBatch: %v", err)
					return
				}
				if len(res) != len(qs) {
					t.Errorf("in-flight QueryBatch answered %d, want %d", len(res), len(qs))
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let gathers get in flight
	if err := coord.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()

	if _, err := coord.TryIngest(edges[:1]); !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("TryIngest after Close = %v, want ErrClosed", err)
	}
	if _, err := coord.QueryBatch(qs); !errors.Is(err, cluster.ErrClosed) {
		t.Fatalf("QueryBatch after Close = %v, want ErrClosed", err)
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestClusterProbeRevives checks the health loop end to end: a shard
// marked degraded by a failed query sheds ingest and fails gathers until
// a probe finds it answering again, after which both go through.
func TestClusterProbeRevives(t *testing.T) {
	edges := testStream(2000, 31)
	sample := edges[:500]
	coord, shards := startCluster(t, 2, sample, cluster.Config{
		BatchEdges:   256,
		PingInterval: -1, // drive probes by hand for determinism
		OpTimeout:    2 * time.Second,
	})
	clusterIngest(t, coord, edges)
	drain(t, coord)
	qs := testQueries(edges)[:50]

	addr := shards[1].addr
	shards[1].srv.Close()
	var pe *cluster.PartialError
	if _, err := coord.QueryBatch(qs); !errors.As(err, &pe) {
		t.Fatalf("QueryBatch with shard 1 dead = %v, want *PartialError", err)
	}
	coord.Probe() // still dead: stays degraded
	downEdge, _ := findRoutedEdges(t, coord, edges)

	// The shard comes back on the same address, empty.
	serveShard(t, addr, gsketch.WithSample(sample))
	coord.Probe()
	if n, err := coord.TryIngest([]stream.Edge{downEdge}); err != nil || n != 1 {
		t.Fatalf("TryIngest at the revived shard = (%d, %v), want (1, nil)", n, err)
	}
	drain(t, coord)
	if _, err := coord.QueryBatch(qs); err != nil {
		t.Fatalf("QueryBatch after revival: %v", err)
	}
}

// gateEstimator blocks UpdateBatch on a gate, so a shard's wire
// connection sits in a fold and acks nothing further until it opens.
type gateEstimator struct {
	gate  chan struct{}
	once  sync.Once
	edges atomic.Int64
}

func (g *gateEstimator) UpdateBatch(es []stream.Edge) { <-g.gate; g.edges.Add(int64(len(es))) }
func (g *gateEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	return make([]core.Result, len(qs))
}
func (g *gateEstimator) Count() int64     { return g.edges.Load() }
func (g *gateEstimator) MemoryBytes() int { return 0 }
func (g *gateEstimator) open()            { g.once.Do(func() { close(g.gate) }) }

// TestCoordinatorShedsOnStalledShard: a coordinator's edges belong to
// the shard queues, so over a stalled shard a one-batch queue fills and
// TryIngest returns the accepted prefix with ingest.ErrQueueFull — and
// once the shard moves again, Drain lands every accepted edge. The
// benchmark ladder's retry loop relies on both halves.
func TestCoordinatorShedsOnStalledShard(t *testing.T) {
	dest := &gateEstimator{gate: make(chan struct{})}
	shard := serveShard(t, "127.0.0.1:0", gsketch.WithEstimator(dest))
	router, err := core.BuildGSketch(testSketchConfig(), testStream(500, 83), nil)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := cluster.New(cluster.Config{
		Addrs:        []string{shard.addr},
		Router:       router,
		BatchEdges:   4,
		QueueBatches: 1,
		PingInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	t.Cleanup(dest.open) // runs first: neither Close waits on a shut gate

	edges := testStream(400, 89)
	sent, shed := 0, false
	for sent < len(edges)-4 && !shed {
		n, err := coord.TryIngest(edges[sent : sent+4])
		switch {
		case err == nil && n == 4:
		case errors.Is(err, ingest.ErrQueueFull) && n < 4:
			shed = true
		default:
			t.Fatalf("TryIngest = (%d, %v), want 4 accepted or a prefix with ErrQueueFull", n, err)
		}
		sent += n
	}
	if !shed {
		t.Fatalf("%d edges accepted into a one-batch queue over a stalled shard, none shed", sent)
	}
	dest.open()
	drain(t, coord)
	if got := dest.edges.Load(); got != int64(sent) {
		t.Fatalf("shard folded %d edges, want the %d TryIngest accepted", got, sent)
	}
}
