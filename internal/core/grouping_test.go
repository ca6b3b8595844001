package core

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// groupedSketch hand-builds a gSketch with exactly shards update domains
// (the outlier sketch, if any, is the last), which no sample steers the
// partitioner to on demand. Vertices 0..3·parts-1 are routed round-robin —
// vertex 0 included, the router's out-of-line key — and everything above
// falls through to the outlier shard (or partition 0 without one). Every
// shard is 8 columns wide, so the tests over it — the 257-shard
// TestConcurrentWritersBesideReader among them — drive the bank's routed
// kernels under the stripe locks on colliding cells.
func groupedSketch(tb testing.TB, shards int, outlier bool) *GSketch {
	tb.Helper()
	return groupedSketchWith(tb, shards, outlier, Config{}, 8)
}

// groupedSketchWith is groupedSketch in cfg's update mode with shards width
// columns wide: cfg's Conservative field is kept, the other dimensions and
// the seed are the fixture's.
func groupedSketchWith(tb testing.TB, shards int, outlier bool, cfg Config, width int) *GSketch {
	tb.Helper()
	const depth = 2
	parts := shards
	if outlier {
		parts--
	}
	keys, vals := make([]uint64, 3*parts), make([]int32, 3*parts)
	for v := range keys {
		keys[v], vals[v] = uint64(v), int32(v%parts)
	}
	cfg.TotalWidth, cfg.Depth, cfg.Seed = shards*width, depth, 11
	g := &GSketch{
		cfg:        cfg.withDefaults(),
		router:     buildRouter(keys, vals),
		leaves:     make([]Leaf, parts),
		totalWidth: shards * width,
	}
	for i := range g.leaves {
		g.leaves[i] = Leaf{Width: width, Vertices: 3}
	}
	if outlier {
		g.outlierWidth = width
	}
	if err := g.allocShards(); err != nil {
		tb.Fatal(err)
	}
	if g.NumShards() != shards {
		tb.Fatalf("built %d shards, want %d", g.NumShards(), shards)
	}
	return g
}

// groupedStream draws n edges whose sources repeat, a quarter of them
// unrouted, with weights 0..3 (0 counts as 1).
func groupedStream(n, shards int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % uint64(4*shards),
			Dst:    rng.Uint64() % 64,
			Weight: int64(rng.Uint64() % 4),
		}
	}
	return edges
}

func routeTotals(t *testing.T, est Estimator) (writes, reads int64) {
	t.Helper()
	rs := est.(RouteStatsSource)
	w, r := rs.WriteRouteCounts(), rs.ReadRouteCounts()
	var sum int64
	for _, n := range w.Partitions {
		sum += n
	}
	if sum+w.Outlier != w.Total {
		t.Fatalf("write route counts do not add up: %d + %d != %d", sum, w.Outlier, w.Total)
	}
	return w.Total, r.Total
}

// perQuery is the Result the per-query calls give for q on g: EstimateEdge's
// estimate, PartitionOf's partition (NoPartition and the outlier flag for
// an unrouted source when g has an outlier shard), ErrorBound's bound.
func perQuery(g *GSketch, q EdgeQuery) Result {
	part, routed := g.PartitionOf(q.Src)
	r := Result{
		Estimate:    g.EstimateEdge(q.Src, q.Dst),
		Partition:   part,
		ErrorBound:  g.ErrorBound(q.Src),
		Confidence:  confidence(g.Depth()),
		StreamTotal: g.Count(),
	}
	if !routed && g.outlierWidth > 0 {
		r.Partition, r.Outlier = NoPartition, true
	}
	return r
}

// TestGroupedBatchesMatchSequential is the grouping's equivalence property,
// swept over shard counts around the lock-stripe boundary (maxLockStripes =
// 64), with and without the outlier shard, and batch sizes from one edge to
// four query chunks, including sizes either side of one and two routing
// blocks (routeBlock = 64). Every batch of size b follows a larger one, so a
// count the touched-list reset missed would surface as a misplaced or
// dropped position.
func TestGroupedBatchesMatchSequential(t *testing.T) {
	const first = 8192
	for _, shards := range []int{1, 2, 63, 64, 65, 4097} {
		for _, outlier := range []bool{true, false} {
			if outlier && shards == 1 {
				continue // an outlier shard needs a partition beside it
			}
			for _, batch := range []int{1, 7, 63, 64, 65, 129, 1024, 8192} {
				name := fmt.Sprintf("shards=%d/outlier=%v/batch=%d", shards, outlier, batch)
				t.Run(name, func(t *testing.T) {
					edges := groupedStream(first+3*batch, shards, uint64(shards*31+batch))
					seq := groupedSketch(t, shards, outlier)
					for _, e := range edges {
						seq.Update(e)
					}
					want := serializeGSketch(t, seq)

					plain := groupedSketch(t, shards, outlier)
					conc := NewConcurrent(groupedSketch(t, shards, outlier))
					for _, est := range []Estimator{plain, conc} {
						est.UpdateBatch(edges[:first])
						for lo := first; lo < len(edges); lo += batch {
							est.UpdateBatch(edges[lo : lo+batch])
						}
						if est.Count() != seq.Count() {
							t.Fatalf("%T: Count %d, sequential %d", est, est.Count(), seq.Count())
						}
						var buf bytes.Buffer
						if _, err := est.(io.WriterTo).WriteTo(&buf); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(buf.Bytes(), want) {
							t.Fatalf("%T: batch state is not byte-identical to sequential Update", est)
						}

						qs := batchQueries(edges, len(edges))
						var got []Result
						got = append(got, est.EstimateBatch(qs[:first])...)
						for lo := first; lo < len(qs); lo += batch {
							got = append(got, est.EstimateBatch(qs[lo:lo+batch])...)
						}
						for i, q := range qs {
							if ref := perQuery(seq, q); got[i] != ref {
								t.Fatalf("%T: query %d (%d,%d): batch %+v, per-edge %+v", est, i, q.Src, q.Dst, got[i], ref)
							}
						}

						writes, reads := routeTotals(t, est)
						if writes != int64(len(edges)) || reads != int64(len(qs)) {
							t.Fatalf("%T: routed %d writes / %d reads, want %d / %d", est, writes, reads, len(edges), len(qs))
						}
					}
					for shard, c := range plain.scratch.count {
						if c != 0 || plain.scratch.folded[shard] != 0 {
							t.Fatalf("count/folded[%d] = %d/%d between batches, want 0", shard, c, plain.scratch.folded[shard])
						}
					}
				})
			}
		}
	}
}

// TestConcurrentEstimateChunkBoundaries: a query batch is answered chunk by
// chunk (estimateChunk positions), each chunk in input order under one read
// lock per touched stripe. Batches one short of a chunk, exactly one and one
// past it — after a larger batch, so stale per-chunk state would show —
// must match per-query EstimateEdge in estimate, partition, outlier flag and
// bound, through a bare sketch, Concurrent.EstimateBatch and AppendEstimates
// onto a non-empty buffer, and count one routed read per query.
func TestConcurrentEstimateChunkBoundaries(t *testing.T) {
	for _, shards := range []int{63, 64, 65} {
		edges := groupedStream(3*estimateChunk, shards, uint64(shards))
		qs := batchQueries(edges, 3*estimateChunk)
		seq := groupedSketch(t, shards, true)
		bare := groupedSketch(t, shards, true)
		conc := NewConcurrent(groupedSketch(t, shards, true))
		for _, est := range []Estimator{seq, bare, conc} {
			est.UpdateBatch(edges)
		}
		bare.EstimateBatch(qs)
		conc.EstimateBatch(qs)
		prefix := Result{Estimate: -7}
		for _, n := range []int{estimateChunk - 1, estimateChunk, estimateChunk + 1} {
			batch := qs[len(qs)-n:]
			_, readsBefore := routeTotals(t, conc)
			for _, path := range []struct {
				name string
				got  []Result
			}{
				{"bare", bare.EstimateBatch(batch)},
				{"conc", conc.EstimateBatch(batch)},
				{"append", conc.AppendEstimates([]Result{prefix}, batch)[1:]},
			} {
				if len(path.got) != n {
					t.Fatalf("shards=%d n=%d %s: %d results", shards, n, path.name, len(path.got))
				}
				for i, q := range batch {
					if ref := perQuery(seq, q); path.got[i] != ref {
						t.Fatalf("shards=%d n=%d %s: query %d (%d,%d): batch %+v, per-query %+v", shards, n, path.name, i, q.Src, q.Dst, path.got[i], ref)
					}
				}
			}
			if _, reads := routeTotals(t, conc); reads-readsBefore != int64(2*n) {
				t.Fatalf("shards=%d n=%d: %d routed reads, want %d", shards, n, reads-readsBefore, 2*n)
			}
			if got := conc.AppendEstimates([]Result{prefix}, batch[:1]); got[0] != prefix {
				t.Fatalf("AppendEstimates overwrote the buffer's prefix: %+v", got[0])
			}
		}
	}
}

// FuzzEstimateBatchInputOrder checks the read path against per-query calls
// on any query batch. The first byte picks one of eight fixtures — 63, 64,
// 65 or 129 shards, with or without the outlier shard, around the
// lock-stripe boundary — and how often the rest repeats, so that a short
// input can still cross estimateChunk. Each further byte is a query: a
// routed source (vertex 0 included) or an unrouted one, and a destination
// the fixture's stream drew. Concurrent.AppendEstimates onto a non-empty
// buffer and GSketch.EstimateBatch must both give what EstimateEdge,
// PartitionOf and ErrorBound give, in input order.
func FuzzEstimateBatchInputOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{0x17, 0x80, 0x00, 0xff, 0x41, 0x41, 0x41})
	f.Add([]byte{0xff, 9, 0x90, 0x10, 0xa5})
	across := []byte{0xfb} // 32 repetitions of 100 queries: two chunks and a part
	for i := range 100 {
		across = append(across, byte(i*29))
	}
	f.Add(across)
	type fixture struct {
		ref, bare *GSketch
		conc      *Concurrent
	}
	var fixtures [8]*fixture
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1024 {
			return
		}
		pick := int(data[0] & 7)
		fx := fixtures[pick]
		if fx == nil {
			shards, outlier := []int{63, 64, 65, 129}[pick>>1], pick&1 == 0
			edges := groupedStream(4096, shards, uint64(pick))
			fx = &fixture{
				ref:  groupedSketch(t, shards, outlier),
				bare: groupedSketch(t, shards, outlier),
				conc: NewConcurrent(groupedSketch(t, shards, outlier)),
			}
			for _, est := range []Estimator{fx.ref, fx.bare, fx.conc} {
				est.UpdateBatch(edges)
			}
			fixtures[pick] = fx
		}
		reps := 1 + int(data[0]>>3)
		var qs []EdgeQuery
		for range reps {
			for _, b := range data[1:] {
				q := EdgeQuery{Src: uint64(b & 0x7f), Dst: uint64(b>>1) % 64}
				if b&0x80 != 0 {
					q.Src = 1_000_000 + uint64(b)
				}
				qs = append(qs, q)
			}
		}
		prefix := Result{Estimate: -1, Partition: -2}
		got := fx.conc.AppendEstimates([]Result{prefix}, qs)
		if len(got) != 1+len(qs) || got[0] != prefix {
			t.Fatalf("AppendEstimates returned %d results after prefix %+v, want %d after %+v", len(got)-1, got[0], len(qs), prefix)
		}
		bare := fx.bare.EstimateBatch(qs)
		for i, q := range qs {
			ref := perQuery(fx.ref, q)
			if got[1+i] != ref || bare[i] != ref {
				t.Fatalf("query %d of %d (%d,%d): AppendEstimates %+v, EstimateBatch %+v, per-query %+v", i, len(qs), q.Src, q.Dst, got[1+i], bare[i], ref)
			}
		}
	})
}

// TestGroupingLayout checks the grouping's own invariants on one routed
// batch: the touched list holds exactly the batch's shards, each lock stripe
// in one run (so a walk takes every stripe lock at most once), and each
// group holds its shard's runs — keys and summed weights — in stream order.
func TestGroupingLayout(t *testing.T) {
	const shards = 200
	g := groupedSketch(t, shards, true)
	edges := groupedStream(3000, shards, 5)
	// Repeat some arrivals in place, so the batch has runs to fold.
	for i := 2000; i+3 < len(edges); i += 10 {
		edges[i+1].Src, edges[i+1].Dst = edges[i].Src, edges[i].Dst
		edges[i+2].Src, edges[i+2].Dst = edges[i].Src, edges[i].Dst
	}
	for _, stripes := range []int{1, maxLockStripes} {
		gr := newGrouping(shards, stripes)
		gr.routeEdges(g, edges[:2000]) // a larger batch first
		batch := edges[2000:]
		gr.routeEdges(g, batch)

		wantKeys := map[int32][]uint64{}
		wantWeights := map[int32][]int64{}
		for _, e := range foldRuns(batch) {
			shard := int32(g.Route(e.Src))
			wantKeys[shard] = append(wantKeys[shard], stream.EdgeKey(e.Src, e.Dst))
			wantWeights[shard] = append(wantWeights[shard], e.Weight)
		}
		if len(gr.touched) != len(wantKeys) {
			t.Fatalf("stripes=%d: %d touched shards, want %d", stripes, len(gr.touched), len(wantKeys))
		}
		seenStripe := map[int]bool{}
		last := -1
		for j, shard := range gr.touched {
			if st := int(shard) % stripes; st != last {
				if seenStripe[st] {
					t.Fatalf("stripes=%d: stripe %d appears in two runs of the touched list", stripes, st)
				}
				seenStripe[st] = true
				last = st
			}
			lo, hi := gr.off[j], gr.off[j+1]
			if !slices.Equal(gr.gkeys[lo:hi], wantKeys[shard]) || !slices.Equal(gr.gvals[lo:hi], wantWeights[shard]) {
				t.Fatalf("stripes=%d: shard %d group is not its edges in stream order", stripes, shard)
			}
			delete(wantKeys, shard)
		}
		if len(wantKeys) != 0 {
			t.Fatalf("stripes=%d: %d shards of the batch missing from the touched list", stripes, len(wantKeys))
		}
	}
}

// TestConcurrentWritersBesideReader runs batch writers of mixed batch sizes
// beside a batch reader on more shards than lock stripes (so stripes are
// shared) and checks conservation: stream total, routed-write total and —
// CountMin adds commute — the very bytes of a sequentially fed sketch.
// Under -race it is the grouping's pool and stripe-walk check.
func TestConcurrentWritersBesideReader(t *testing.T) {
	const shards, writers, perWriter = 4*maxLockStripes + 1, 4, 20_000
	edges := groupedStream(writers*perWriter, shards, 17)
	seq := groupedSketch(t, shards, true)
	for _, e := range edges {
		seq.Update(e)
	}
	c := NewConcurrent(groupedSketch(t, shards, true))
	qs := batchQueries(edges, 3000)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, r := range c.EstimateBatch(qs) {
				if r.Estimate < 0 || r.ErrorBound < 0 {
					t.Errorf("query %d: %+v", i, r)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := edges[w*perWriter : (w+1)*perWriter]
			sizes := []int{1, 7, 256, 1024, 3000}
			for i := 0; len(mine) > 0; i++ {
				n := min(sizes[(i+w)%len(sizes)], len(mine))
				c.UpdateBatch(mine[:n])
				mine = mine[n:]
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if c.Count() != seq.Count() {
		t.Fatalf("stream total %d, want %d", c.Count(), seq.Count())
	}
	if got := c.WriteRouteCounts().Total; got != int64(len(edges)) {
		t.Fatalf("routed writes %d, want %d", got, len(edges))
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), serializeGSketch(t, seq)) {
		t.Fatal("concurrent batch state differs from the sequentially fed sketch")
	}
	if c.MemoryBytes() != seq.MemoryBytes() {
		t.Fatalf("MemoryBytes %d, want %d", c.MemoryBytes(), seq.MemoryBytes())
	}
}

// TestBatchPathsSteadyStateAllocs is the scaling guard's allocation half:
// once the pooled grouping is warm, a batch allocates nothing on the write
// side and only the caller-visible []Result on the read side, at few shards
// and at thousands alike.
func TestBatchPathsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, shards := range []int{16, 4097} {
		c := NewConcurrent(groupedSketch(t, shards, true))
		edges := groupedStream(1024, shards, 3)
		runs := runStream(1024, 3, []int64{0, 1, 2})
		qs := batchQueries(edges, len(edges))
		c.UpdateBatch(edges)
		c.UpdateBatch(runs)
		c.EstimateBatch(qs)
		if n := testing.AllocsPerRun(100, func() { c.UpdateBatch(edges) }); n != 0 {
			t.Errorf("shards=%d: UpdateBatch allocates %v per batch, want 0", shards, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.UpdateBatch(runs) }); n != 0 {
			t.Errorf("shards=%d: UpdateBatch of runs allocates %v per batch, want 0", shards, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.EstimateBatch(qs) }); n != 1 {
			t.Errorf("shards=%d: EstimateBatch allocates %v per batch, want 1 (the results)", shards, n)
		}
	}
}
