package core

import (
	"math"
	"sync"
	"testing"

	"github.com/graphstream/gsketch/internal/stream"
)

// batchQueries derives a query batch from a stream: the stream's own edges
// (present keys) interleaved with never-seen edges (absent keys).
func batchQueries(edges []stream.Edge, n int) []EdgeQuery {
	qs := make([]EdgeQuery, 0, n)
	for i := 0; len(qs) < n; i++ {
		e := edges[i%len(edges)]
		qs = append(qs, EdgeQuery{Src: e.Src, Dst: e.Dst})
		if len(qs) < n {
			qs = append(qs, EdgeQuery{Src: e.Src + 500_000, Dst: e.Dst + 1})
		}
	}
	return qs
}

// assertBatchMatchesSequential requires est's EstimateBatch to return
// exactly the per-edge EstimateEdge values of ref, the sketch est serves, in
// input order.
func assertBatchMatchesSequential(t *testing.T, name string, est Estimator, ref *GSketch, qs []EdgeQuery) {
	t.Helper()
	res := est.EstimateBatch(qs)
	if len(res) != len(qs) {
		t.Fatalf("%s: %d results for %d queries", name, len(res), len(qs))
	}
	for i, q := range qs {
		if want := ref.EstimateEdge(q.Src, q.Dst); res[i].Estimate != want {
			t.Fatalf("%s: query %d (%d,%d): batch %d, sequential %d",
				name, i, q.Src, q.Dst, res[i].Estimate, want)
		}
	}
}

func TestGSketchEstimateBatchMatchesEstimateEdge(t *testing.T) {
	edges := batchTestStream(50_000, 71)
	g := buildBatchTestSketch(t, 71)
	Populate(g, edges)
	qs := batchQueries(edges, 10_000)
	assertBatchMatchesSequential(t, "gsketch", g, g, qs)
	// Second batch reuses the gather scratch.
	assertBatchMatchesSequential(t, "gsketch-reuse", g, g, qs[:100])
}

func TestGlobalSketchEstimateBatchMatchesEstimateEdge(t *testing.T) {
	edges := batchTestStream(50_000, 73)
	g, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)
	assertBatchMatchesSequential(t, "global", g, g, batchQueries(edges, 10_000))
}

func TestConcurrentEstimateBatchMatchesEstimateEdge(t *testing.T) {
	edges := batchTestStream(50_000, 79)
	c := NewConcurrent(buildBatchTestSketch(t, 79))
	Populate(c, edges)
	assertBatchMatchesSequential(t, "concurrent-sharded", c, c.Unwrap(), batchQueries(edges, 10_000))

	// The leafless Global Sketch: one stripe over one outlier shard.
	gl, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 79})
	if err != nil {
		t.Fatal(err)
	}
	cg := NewConcurrent(gl)
	Populate(cg, edges)
	assertBatchMatchesSequential(t, "concurrent-global", cg, gl, batchQueries(edges, 5_000))
}

func TestEstimateBatchEmptyAndSingleton(t *testing.T) {
	g := buildBatchTestSketch(t, 89)
	if res := g.EstimateBatch(nil); len(res) != 0 {
		t.Fatalf("nil batch returned %d results", len(res))
	}
	res := g.EstimateBatch([]EdgeQuery{{Src: 1, Dst: 2}})
	if len(res) != 1 || res[0].Estimate != g.EstimateEdge(1, 2) {
		t.Fatalf("singleton batch: %+v", res)
	}
}

// TestEstimateBatchMetadata pins the provenance and guarantee fields
// against the existing single-query accessors.
func TestEstimateBatchMetadata(t *testing.T) {
	edges := batchTestStream(50_000, 97)
	g := buildBatchTestSketch(t, 97)
	Populate(g, edges)

	qs := batchQueries(edges, 4_000)
	res := g.EstimateBatch(qs)
	wantConf := 1 - math.Exp(-float64(g.Depth()))
	var sawOutlier, sawPartition bool
	for i, q := range qs {
		r := res[i]
		part, routed := g.PartitionOf(q.Src)
		if routed {
			sawPartition = true
			if r.Outlier || r.Partition != part {
				t.Fatalf("routed query %d: Result{Partition: %d, Outlier: %v}, want partition %d",
					i, r.Partition, r.Outlier, part)
			}
		} else {
			sawOutlier = true
			if !r.Outlier || r.Partition != NoPartition {
				t.Fatalf("outlier query %d: Result{Partition: %d, Outlier: %v}", i, r.Partition, r.Outlier)
			}
		}
		if want := g.ErrorBound(q.Src); r.ErrorBound != want {
			t.Fatalf("query %d: ErrorBound %v, want %v", i, r.ErrorBound, want)
		}
		if r.Confidence != wantConf {
			t.Fatalf("query %d: Confidence %v, want %v", i, r.Confidence, wantConf)
		}
		if r.StreamTotal != g.Count() {
			t.Fatalf("query %d: StreamTotal %d, want %d", i, r.StreamTotal, g.Count())
		}
	}
	if !sawOutlier || !sawPartition {
		t.Fatalf("test stream exercised outlier=%v partition=%v; want both", sawOutlier, sawPartition)
	}
}

func TestGlobalSketchEstimateBatchMetadata(t *testing.T) {
	edges := batchTestStream(20_000, 101)
	g, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 101})
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)
	res := g.EstimateBatch(batchQueries(edges, 100))
	want := errorBound(g.Count(), g.TotalWidth())
	for i, r := range res {
		if r.Partition != NoPartition || !r.Outlier {
			t.Fatalf("result %d: global sketch reported partition %d outlier %v", i, r.Partition, r.Outlier)
		}
		if r.ErrorBound != want {
			t.Fatalf("result %d: bound %v, want %v", i, r.ErrorBound, want)
		}
		if r.StreamTotal != g.Count() {
			t.Fatalf("result %d: total %d, want %d", i, r.StreamTotal, g.Count())
		}
	}
}

// TestConcurrentEstimateBatchParallelReaders runs several batch readers at
// once, over a partitioned sketch (many stripes) and the Global Sketch (one
// stripe) — pinning that the batched read path mutates no shared state
// under read locks (the -race proof for reader-vs-reader).
func TestConcurrentEstimateBatchParallelReaders(t *testing.T) {
	edges := batchTestStream(30_000, 107)
	qs := batchQueries(edges, 3_000)

	sharded := NewConcurrent(buildBatchTestSketch(t, 107))
	Populate(sharded, edges)
	gl, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 107})
	if err != nil {
		t.Fatal(err)
	}
	global := NewConcurrent(gl)
	Populate(global, edges)

	for _, c := range []*Concurrent{sharded, global} {
		want := c.EstimateBatch(qs)
		var wg sync.WaitGroup
		for r := 0; r < 4; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got := c.EstimateBatch(qs)
					for j := range got {
						if got[j].Estimate != want[j].Estimate {
							t.Errorf("reader saw %d for query %d, want %d", got[j].Estimate, j, want[j].Estimate)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestConcurrentEstimateBatchUnderWriters runs batch readers against
// concurrent batch writers (the -race proof), then checks final equivalence
// once the writers drain.
func TestConcurrentEstimateBatchUnderWriters(t *testing.T) {
	edges := batchTestStream(60_000, 103)
	c := NewConcurrent(buildBatchTestSketch(t, 103))
	qs := batchQueries(edges, 2_000)

	const writers = 4
	var wg sync.WaitGroup
	stripe := len(edges) / writers
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 512 {
				hi := lo + 512
				if hi > len(part) {
					hi = len(part)
				}
				c.UpdateBatch(part[lo:hi])
			}
		}(edges[w*stripe : (w+1)*stripe])
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 50; i++ {
			res := c.EstimateBatch(qs)
			for j, r := range res {
				if r.Estimate < 0 {
					t.Errorf("iteration %d query %d: negative estimate %d", i, j, r.Estimate)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-readerDone

	assertBatchMatchesSequential(t, "concurrent-after-writers", c, c.Unwrap(), qs)
}

// TestConcurrentAppendEstimatesIntoCallerBuffer: the append path answers
// what EstimateBatch answers, after whatever the caller already has in the
// buffer, over whatever a previous batch left behind it — across chunk
// boundaries, over a partitioned sketch and the Global Sketch — and, once
// the buffer has grown to the batch, without allocating.
func TestConcurrentAppendEstimatesIntoCallerBuffer(t *testing.T) {
	edges := batchTestStream(50_000, 211)
	sharded := NewConcurrent(buildBatchTestSketch(t, 211))
	gl, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 211})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Concurrent{"sharded": sharded, "global": NewConcurrent(gl)} {
		Populate(c, edges)
		marker := Result{Estimate: -1, Partition: 77}
		buf := []Result{marker}
		for _, n := range []int{3 * estimateChunk, 1, 0, estimateChunk + 5} { // shrinking, then growing again
			qs := batchQueries(edges, n)
			want := c.EstimateBatch(qs)
			buf = c.AppendEstimates(buf[:1], qs)
			if len(buf) != 1+n || buf[0] != marker {
				t.Fatalf("%s n=%d: %d results behind prefix %+v", name, n, len(buf)-1, buf[0])
			}
			for i := range want {
				if buf[1+i] != want[i] {
					t.Fatalf("%s n=%d result %d = %+v, want %+v", name, n, i, buf[1+i], want[i])
				}
			}
		}
	}
	if raceEnabled {
		return // sync.Pool drops the grouping at random under the race detector
	}
	qs := batchQueries(edges, 2048)
	buf := sharded.AppendEstimates(nil, qs)
	if allocs := testing.AllocsPerRun(20, func() { buf = sharded.AppendEstimates(buf[:0], qs) }); allocs != 0 {
		t.Fatalf("AppendEstimates into a grown buffer allocates %v times per batch, want 0", allocs)
	}
}
