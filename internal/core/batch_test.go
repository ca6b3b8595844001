package core

import (
	"bytes"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// batchTestStream builds a skewed edge stream whose sources partly overlap
// the sample (router hits) and partly do not (outlier traffic).
func batchTestStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 3000,
			Dst:    rng.Uint64() % 8000,
			Weight: int64(rng.Uint64() % 4), // weight 0 exercises the default-1 path
		}
	}
	return edges
}

func buildBatchTestSketch(t *testing.T, seed uint64) *GSketch {
	t.Helper()
	sample := batchTestStream(4000, seed+100)
	g, err := BuildGSketch(Config{TotalWidth: 4096, Seed: seed}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func serializeGSketch(t *testing.T, g *GSketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGSketchUpdateBatchByteIdentical proves the route-then-scatter batch
// path produces exactly the counters of per-edge Update, via full
// serialized state comparison.
func TestGSketchUpdateBatchByteIdentical(t *testing.T) {
	edges := batchTestStream(50_000, 7)
	seq := buildBatchTestSketch(t, 7)
	bat := buildBatchTestSketch(t, 7)

	for _, e := range edges {
		seq.Update(e)
	}
	for lo := 0; lo < len(edges); lo += 1000 {
		hi := lo + 1000
		if hi > len(edges) {
			hi = len(edges)
		}
		bat.UpdateBatch(edges[lo:hi])
	}
	if seq.Count() != bat.Count() {
		t.Fatalf("Count %d (sequential) vs %d (batch)", seq.Count(), bat.Count())
	}
	if !bytes.Equal(serializeGSketch(t, seq), serializeGSketch(t, bat)) {
		t.Fatal("batch counters are not byte-identical to sequential Update")
	}
}

// TestGSketchUpdateBatchConservative covers the order-sensitive
// conservative-update path: within-shard order preservation must keep it
// byte-identical too.
func TestGSketchUpdateBatchConservative(t *testing.T) {
	edges := batchTestStream(30_000, 9)
	sample := batchTestStream(4000, 109)
	build := func() *GSketch {
		g, err := BuildGSketch(Config{TotalWidth: 4096, Seed: 9, Conservative: true}, sample, nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seq, bat := build(), build()
	for _, e := range edges {
		seq.Update(e)
	}
	Populate(bat, edges)
	for _, e := range edges {
		s := seq.EstimateEdge(e.Src, e.Dst)
		b := bat.EstimateEdge(e.Src, e.Dst)
		if s != b {
			t.Fatalf("conservative estimate (%d,%d): %d vs %d", e.Src, e.Dst, s, b)
		}
	}
}

func TestGlobalSketchUpdateBatchEquivalence(t *testing.T) {
	edges := batchTestStream(50_000, 11)
	build := func() *GSketch {
		g, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	seq, bat := build(), build()
	for _, e := range edges {
		seq.Update(e)
	}
	bat.UpdateBatch(edges)
	if seq.Count() != bat.Count() {
		t.Fatalf("Count %d vs %d", seq.Count(), bat.Count())
	}
	for _, e := range edges[:2000] {
		if s, b := seq.EstimateEdge(e.Src, e.Dst), bat.EstimateEdge(e.Src, e.Dst); s != b {
			t.Fatalf("estimate (%d,%d): %d vs %d", e.Src, e.Dst, s, b)
		}
	}
}

// TestConcurrentUpdateBatchByteIdentical proves the sharded Concurrent
// writer leaves the wrapped gSketch in the same state as unwrapped
// sequential updates.
func TestConcurrentUpdateBatchByteIdentical(t *testing.T) {
	edges := batchTestStream(50_000, 13)
	seq := buildBatchTestSketch(t, 13)
	shardedTarget := buildBatchTestSketch(t, 13)
	c := NewConcurrent(shardedTarget)
	if c.NumShards() < 2 {
		t.Fatalf("sharded path not selected (%d shards)", c.NumShards())
	}

	for _, e := range edges {
		seq.Update(e)
	}
	for lo := 0; lo < len(edges); lo += 500 {
		hi := lo + 500
		if hi > len(edges) {
			hi = len(edges)
		}
		if lo%1000 == 0 {
			c.UpdateBatch(edges[lo:hi])
		} else {
			for _, e := range edges[lo:hi] {
				c.UpdateBatch([]stream.Edge{e})
			}
		}
	}
	if !bytes.Equal(serializeGSketch(t, seq), serializeGSketch(t, shardedTarget)) {
		t.Fatal("sharded Concurrent state differs from sequential Update")
	}
}

// TestPopulateMatchesUpdate guards the chunked Populate path.
func TestPopulateMatchesUpdate(t *testing.T) {
	edges := batchTestStream(populateChunk*2+123, 17)
	seq := buildBatchTestSketch(t, 17)
	pop := buildBatchTestSketch(t, 17)
	for _, e := range edges {
		seq.Update(e)
	}
	Populate(pop, edges)
	if !bytes.Equal(serializeGSketch(t, seq), serializeGSketch(t, pop)) {
		t.Fatal("Populate state differs from sequential Update")
	}
}

// TestRouterBytesIsCapacityBased pins the satellite fix: RouterBytes must
// report the flat table's allocated capacity, not a per-entry guess.
func TestRouterBytesIsCapacityBased(t *testing.T) {
	g := buildBatchTestSketch(t, 19)
	if got, want := g.RouterBytes(), g.router.Cap()*routerSlotBytes; got != want {
		t.Fatalf("RouterBytes = %d, want capacity-based %d", got, want)
	}
	if g.RouterBytes() < g.router.Len()*routerSlotBytes {
		t.Fatal("RouterBytes below live-entry footprint")
	}
}

// TestSerializeRoundTripBatchPopulated re-checks persistence through the
// new router representation.
func TestSerializeRoundTripBatchPopulated(t *testing.T) {
	edges := batchTestStream(20_000, 23)
	g := buildBatchTestSketch(t, 23)
	Populate(g, edges)
	raw := serializeGSketch(t, g)
	got, err := ReadGSketch(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Count() != g.Count() {
		t.Fatalf("round-trip Count %d, want %d", got.Count(), g.Count())
	}
	for _, e := range edges[:2000] {
		if a, b := g.EstimateEdge(e.Src, e.Dst), got.EstimateEdge(e.Src, e.Dst); a != b {
			t.Fatalf("round-trip estimate (%d,%d): %d vs %d", e.Src, e.Dst, a, b)
		}
	}
	for src := uint64(0); src < 3000; src++ {
		pa, oka := g.PartitionOf(src)
		pb, okb := got.PartitionOf(src)
		if pa != pb || oka != okb {
			t.Fatalf("round-trip route of %d: (%d,%v) vs (%d,%v)", src, pa, oka, pb, okb)
		}
	}
}

// assertCountedLike cross-checks g, which absorbed edges through any mix of
// batch paths and writer goroutines, against the truth and against ref, a
// sketch of g's layout fed the same edges by per-edge Update on one
// goroutine:
//   - Count is the truth total;
//   - every shard's volume N_i is the truth volume of the edges whose source
//     routes to it, so no arrival is lost, doubled or misrouted;
//   - every estimate is at least the edge's true frequency;
//   - the snapshot bytes equal ref's. Plain saturating adds commute, so no
//     batching, run folding or writer interleaving can change a cell.
func assertCountedLike(t *testing.T, g, ref *GSketch, edges []stream.Edge) {
	t.Helper()
	truth := stream.NewExactCounter()
	truth.ObserveAll(edges)
	if g.Count() != truth.Total() {
		t.Fatalf("Count %d, want %d", g.Count(), truth.Total())
	}
	vol := make([]int64, g.NumShards())
	for _, e := range edges {
		shard := g.Route(e.Src)
		vol[shard] = sketch.AddVolume(vol[shard], e.Increment())
	}
	for shard, want := range vol {
		if got := g.bank.Count(shard); got != want {
			t.Fatalf("%s: volume %d, want %d", g.shardName(shard), got, want)
		}
	}
	truth.RangeEdges(func(src, dst uint64, f int64) bool {
		if got := g.EstimateEdge(src, dst); got < f {
			t.Fatalf("estimate (%d,%d) = %d, below the true %d", src, dst, got, f)
		}
		return true
	})
	for _, e := range edges {
		ref.Update(e)
	}
	if !bytes.Equal(serializeGSketch(t, g), serializeGSketch(t, ref)) {
		t.Fatal("counters differ from one-goroutine per-edge Update of the same edges")
	}
}

// TestUpdateBatchCrossCheck runs the batch path over a partitioned sketch
// with an outlier shard and cross-checks every arrival's routing and count.
func TestUpdateBatchCrossCheck(t *testing.T) {
	edges := batchTestStream(30_000, 29)
	g, ref := buildBatchTestSketch(t, 29), buildBatchTestSketch(t, 29)
	if g.NumPartitions() < 2 || g.OutlierWidth() == 0 {
		t.Fatalf("%d partitions, outlier width %d: want several and an outlier", g.NumPartitions(), g.OutlierWidth())
	}
	Populate(g, edges)
	assertCountedLike(t, g, ref, edges)
}
