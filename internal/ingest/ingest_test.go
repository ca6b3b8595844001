package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 2000,
			Dst:    rng.Uint64() % 6000,
			Weight: int64(rng.Uint64() % 3),
		}
	}
	return edges
}

// buildTarget builds the gSketch every pipeline test ingests into: plain
// CountMin partitions and an outlier shard, laid out from a fixed sample, so
// two calls build the same layout.
func buildTarget(t *testing.T) *core.GSketch {
	t.Helper()
	g, err := core.BuildGSketch(core.Config{TotalWidth: 2048, Seed: 5}, testStream(3000, 99), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// target wraps buildTarget's sketch in the sharded Concurrent.
func target(t *testing.T) *core.Concurrent {
	t.Helper()
	return core.NewConcurrent(buildTarget(t))
}

// assertCounted cross-checks c, a target that absorbed edges through the
// pipeline in any interleaving, against the truth and against a reference
// of the same layout fed the same edges by per-edge Update on one goroutine:
//   - Count is the truth total;
//   - every touched shard's volume N_i, read through its e·N_i/w_i bound, is
//     the truth volume of the edges whose source routes to it;
//   - every estimate is at least the edge's true frequency;
//   - the snapshot bytes equal the reference's. Plain saturating adds
//     commute, so no batching or writer interleaving can change a cell.
func assertCounted(t *testing.T, c *core.Concurrent, edges []stream.Edge) {
	t.Helper()
	g := c.Unwrap()
	truth := stream.NewExactCounter()
	truth.ObserveAll(edges)
	if c.Count() != truth.Total() {
		t.Fatalf("Count = %d, want %d", c.Count(), truth.Total())
	}
	vol := make(map[int]int64)
	probe := make(map[int]uint64) // one source routed to each touched shard
	for _, e := range edges {
		shard := g.Route(e.Src)
		vol[shard] = sketch.AddVolume(vol[shard], e.Increment())
		probe[shard] = e.Src
	}
	for shard, n := range vol {
		width := g.OutlierWidth()
		if shard < g.NumPartitions() {
			width = g.Leaves()[shard].Width
		}
		if got, want := g.ErrorBound(probe[shard]), math.E*float64(n)/float64(width); got != want {
			t.Fatalf("shard %d: bound %v, want e·%d/%d = %v", shard, got, n, width, want)
		}
	}
	truth.RangeEdges(func(src, dst uint64, f int64) bool {
		if got := c.EstimateBatch([]core.EdgeQuery{{Src: src, Dst: dst}})[0].Estimate; got < f {
			t.Fatalf("estimate (%d,%d) = %d, below the true %d", src, dst, got, f)
		}
		return true
	})
	ref := buildTarget(t)
	for _, e := range edges {
		ref.Update(e)
	}
	var got, want bytes.Buffer
	if _, err := c.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("counters differ from one-goroutine per-edge Update of the same edges")
	}
}

// TestIngestorManyProducersCrossCheck is the end-to-end pipeline test:
// several producers, half pushing their stream whole and half in ragged
// pieces that are not multiples of BatchSize, drained by several workers
// into the sharded estimator, cross-checked by assertCounted. Run with
// -race this is the primary concurrency test of the package.
func TestIngestorManyProducersCrossCheck(t *testing.T) {
	const producers = 6
	c := target(t)
	ing, err := New(c, Config{Workers: 4, BatchSize: 256, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}

	streams := make([][]stream.Edge, producers)
	var all []stream.Edge
	for p := range streams {
		streams[p] = testStream(10_000, uint64(500+p))
		all = append(all, streams[p]...)
	}

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(edges []stream.Edge, whole bool) {
			defer wg.Done()
			if whole {
				if err := ing.PushBatch(edges); err != nil {
					t.Errorf("PushBatch: %v", err)
				}
				return
			}
			for piece := 1; len(edges) > 0; piece = piece*7%601 + 1 {
				n := min(piece, len(edges))
				if err := ing.PushBatch(edges[:n]); err != nil {
					t.Errorf("PushBatch: %v", err)
					return
				}
				edges = edges[n:]
			}
		}(streams[p], p%2 == 0)
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	wantEdges := int64(producers * 10_000)
	if ing.Edges() != wantEdges {
		t.Fatalf("Edges = %d, want %d", ing.Edges(), wantEdges)
	}
	assertCounted(t, c, all)
}

func TestIngestorFlushMakesVisible(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()

	e := stream.Edge{Src: 1, Dst: 2, Weight: 7}
	if err := ing.PushBatch([]stream.Edge{e, e, e, e, e}); err != nil {
		t.Fatal(err)
	}
	// The short batch is queued but not necessarily applied; Flush waits.
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := c.EstimateBatch([]core.EdgeQuery{{Src: 1, Dst: 2}})[0].Estimate; got != 35 {
		t.Fatalf("after Flush estimate = %d, want 35", got)
	}
	if ing.Edges() != 5 {
		t.Fatalf("Edges = %d, want 5", ing.Edges())
	}
	// Flush with nothing in flight is a no-op.
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestorCloseLifecycle(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(1000, 1)
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	// Idempotent.
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.PushBatch(edges); err != ErrClosed {
		t.Fatalf("PushBatch after Close = %v, want ErrClosed", err)
	}
	if err := ing.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if ing.Edges() != 1000 {
		t.Fatalf("Edges = %d, want 1000", ing.Edges())
	}
}

// TestIngestorConcurrentClose races several Close calls: every one must
// block until the drain completes, so all callers observe final counts.
func TestIngestorConcurrentClose(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 32, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(20_000, 3)
	truth := stream.NewExactCounter()
	truth.ObserveAll(edges)
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ing.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
			// Any returning Close must see the fully drained state.
			if got := c.Count(); got != truth.Total() {
				t.Errorf("Count after Close = %d, want %d", got, truth.Total())
			}
		}()
	}
	wg.Wait()
}

// TestIngestorBackpressure fills a depth-1 queue against slow workers and
// checks every edge still lands (pushes block rather than drop).
func TestIngestorBackpressure(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 1, BatchSize: 16, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(5000, 2)
	truth := stream.NewExactCounter()
	truth.ObserveAll(edges)
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Count() != truth.Total() {
		t.Fatalf("Count = %d, want %d", c.Count(), truth.Total())
	}
}

func TestIngestorConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.Workers < 1 || cfg.BatchSize != 1024 || cfg.QueueDepth != 4*cfg.Workers {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	ing, err := New(target(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	if ing.QueueCap() != cfg.QueueDepth {
		t.Fatalf("QueueCap = %d, want the default %d", ing.QueueCap(), cfg.QueueDepth)
	}
}

func TestIngestorRejectsBadInput(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("nil destination accepted")
	}
	c := target(t)
	if _, err := New(c, Config{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
}

// gateEstimator blocks every UpdateBatch on a gate channel, making
// queue-full states deterministic for the shed-load tests.
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

// TestTryPushBatchShedsLoad drives the pipeline into a deterministic
// queue-full state and checks that TryPushBatch sheds at once — nothing is
// parked beside a full queue — and that the counters expose the state the
// server's 429 mapping needs.
func TestTryPushBatchShedsLoad(t *testing.T) {
	dest := &gateEstimator{gate: make(chan struct{})}
	ing, err := New(dest, Config{Workers: 1, BatchSize: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(8, 7)
	// Blocking path: batch 1 ends up held by the (gated) worker, batch 2
	// fills the depth-1 queue.
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	if d, c := ing.QueueDepth(), ing.QueueCap(); d != 1 || c != 1 {
		t.Fatalf("QueueDepth/Cap = %d/%d, want 1/1", d, c)
	}
	if n := ing.Inflight(); n != 2 {
		t.Fatalf("Inflight = %d, want 2", n)
	}

	// Non-blocking path: the queue is full, so every offer sheds whole,
	// a full batch and a short one alike, and each counts as one shed.
	more := testStream(8, 8)
	for i, offer := range [][]stream.Edge{more[:4], more[4:7]} {
		if n, err := ing.TryPushBatch(offer); !errors.Is(err, ErrQueueFull) || n != 0 {
			t.Fatalf("offer %d on a full queue = (%d, %v), want (0, ErrQueueFull)", i, n, err)
		}
	}
	if s, n := ing.Sheds(), ing.Inflight(); s != 2 || n != 2 {
		t.Fatalf("Sheds/Inflight = %d/%d, want 2/2: a shed batch must not stay registered", s, n)
	}

	// Release the workers; the rejected offer can now be retried and the
	// pipeline drains completely.
	close(dest.gate)
	for rest := more; len(rest) > 0; {
		n, err := ing.TryPushBatch(rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if errors.Is(err, ErrQueueFull) {
			runtime.Gosched()
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dest.Count(); got != 16 {
		t.Fatalf("edges applied = %d, want 16", got)
	}
	if n := ing.Inflight(); n != 0 {
		t.Fatalf("Inflight after Close = %d, want 0", n)
	}
	if _, err := ing.TryPushBatch(more); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPushBatch after Close err = %v, want ErrClosed", err)
	}
}

// TestPushTailAppliesWithoutFlush pins that a push holds nothing back: a
// push of BatchSize+1 edges, through either entry point, is applied in full
// once the pipeline idles, with no Flush or later push to carry its last
// edge through.
func TestPushTailAppliesWithoutFlush(t *testing.T) {
	const batch = 16
	for _, tc := range []struct {
		name string
		push func(*Ingestor, []stream.Edge) error
	}{
		{"PushBatch", (*Ingestor).PushBatch},
		{"TryPushBatch", func(ing *Ingestor, edges []stream.Edge) error {
			n, err := ing.TryPushBatch(edges)
			if err == nil && n != len(edges) {
				err = fmt.Errorf("accepted %d of %d", n, len(edges))
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ing, err := New(target(t), Config{Workers: 1, BatchSize: batch, QueueDepth: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer ing.Close()
			if err := tc.push(ing, testStream(batch+1, 9)); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for ing.Inflight() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("Inflight still %d", ing.Inflight())
				}
				time.Sleep(time.Millisecond)
			}
			if got := ing.Edges(); got != batch+1 {
				t.Fatalf("Edges = %d once idle, want %d: the push's tail was held back", got, batch+1)
			}
		})
	}
}

// TestTryPushBatchEquivalence checks that a stream fed entirely through the
// non-blocking path (with retries) lands exactly as per-edge Update would
// land it (assertCounted).
func TestTryPushBatchEquivalence(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 64, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(20_000, 11)
	for rest := edges; len(rest) > 0; {
		n, err := ing.TryPushBatch(rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if errors.Is(err, ErrQueueFull) {
			runtime.Gosched()
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	assertCounted(t, c, edges)
}
