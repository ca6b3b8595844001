package core

import (
	"bytes"
	"math/bits"
	"sync"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// TestConcurrentManyWritersCrossCheck drives many writer goroutines (mixing
// one-edge and 512-edge batches) plus concurrent readers through the sharded
// Concurrent, then cross-checks the final state against the truth and a
// one-goroutine per-edge reference (assertCountedLike). Run under -race
// this is the primary data-race test for the sharded ingest path.
func TestConcurrentManyWritersCrossCheck(t *testing.T) {
	const (
		writers       = 8
		edgesPerWrite = 20_000
	)
	g, ref := buildBatchTestSketch(t, 41), buildBatchTestSketch(t, 41)
	c := NewConcurrent(g)
	if c.NumShards() < 2 {
		t.Fatalf("sharded path not selected (%d shards)", c.NumShards())
	}

	streams := make([][]stream.Edge, writers)
	var all []stream.Edge
	for w := range streams {
		streams[w] = batchTestStream(edgesPerWrite, uint64(1000+w))
		all = append(all, streams[w]...)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	// Concurrent readers: results are unasserted mid-stream (counters are
	// in flux) but must be race-free.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(seed uint64) {
			defer readers.Done()
			probe := batchTestStream(1000, seed)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				e := probe[i%len(probe)]
				_ = c.EstimateBatch([]EdgeQuery{{Src: e.Src, Dst: e.Dst}})
				_ = c.Count()
			}
		}(uint64(77 + r))
	}
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(edges []stream.Edge, batched bool) {
			defer writerWG.Done()
			if batched {
				for lo := 0; lo < len(edges); lo += 512 {
					hi := lo + 512
					if hi > len(edges) {
						hi = len(edges)
					}
					c.UpdateBatch(edges[lo:hi])
				}
			} else {
				for _, e := range edges {
					c.UpdateBatch([]stream.Edge{e})
				}
			}
		}(streams[w], w%2 == 0)
	}
	writerWG.Wait()
	close(stop)
	readers.Wait()
	assertCountedLike(t, g, ref, all)
}

// TestConcurrentGlobalSketch checks the wrapper guards the leafless Global
// Sketch — one shard, one stripe — under concurrent writers and readers.
func TestConcurrentGlobalSketch(t *testing.T) {
	g, err := BuildGlobalSketch(Config{TotalWidth: 4096, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(g)
	if c.NumShards() != 1 {
		t.Fatalf("global NumShards = %d, want 1", c.NumShards())
	}
	edges := batchTestStream(10_000, 43)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			c.UpdateBatch(part)
			for _, e := range part[:100] {
				c.UpdateBatch([]stream.Edge{e})
				_ = c.EstimateBatch([]EdgeQuery{{Src: e.Src, Dst: e.Dst}})
			}
		}(edges[w*2500 : (w+1)*2500])
	}
	wg.Wait()
	var want int64
	vol := func(e stream.Edge) int64 {
		if e.Weight == 0 {
			return 1
		}
		return e.Weight
	}
	for _, e := range edges {
		want += vol(e)
	}
	for w := 0; w < 4; w++ {
		for _, e := range edges[w*2500 : w*2500+100] {
			want += vol(e)
		}
	}
	if c.Count() != want {
		t.Fatalf("Count = %d, want %d", c.Count(), want)
	}
	if c.MemoryBytes() != g.MemoryBytes() {
		t.Fatal("MemoryBytes mismatch through wrapper")
	}
}

// TestConcurrentParallelPlainCountMinDeterministic: plain CountMin updates
// commute (saturating adds of non-negative counts), so even a racy-order
// parallel ingest must land on the same final counters as sequential.
func TestConcurrentParallelPlainCountMinDeterministic(t *testing.T) {
	edges := batchTestStream(60_000, 47)
	seq := buildBatchTestSketch(t, 47)
	for _, e := range edges {
		seq.Update(e)
	}

	par := buildBatchTestSketch(t, 47)
	c := NewConcurrent(par)
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 777 {
				hi := lo + 777
				if hi > len(part) {
					hi = len(part)
				}
				c.UpdateBatch(part[lo:hi])
			}
		}(edges[w*10_000 : (w+1)*10_000])
	}
	wg.Wait()

	if seq.Count() != par.Count() {
		t.Fatalf("Count %d vs %d", seq.Count(), par.Count())
	}
	for _, e := range edges[:5000] {
		if s, p := seq.EstimateEdge(e.Src, e.Dst), par.EstimateEdge(e.Src, e.Dst); s != p {
			t.Fatalf("parallel estimate (%d,%d): %d vs %d", e.Src, e.Dst, s, p)
		}
	}
}

// TestConcurrentWriteToSnapshot checks that the locked Concurrent snapshot
// is byte-identical to the wrapped GSketch's own serialization once
// writers quiesce, and that the restored sketch answers byte-identically.
func TestConcurrentWriteToSnapshot(t *testing.T) {
	edges := batchTestStream(30_000, 71)
	g, err := BuildGSketch(Config{TotalBytes: 64 << 10, Seed: 71}, edges[:4000], nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(g)
	c.UpdateBatch(edges)

	var direct, locked bytes.Buffer
	if _, err := g.WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WriteTo(&locked); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), locked.Bytes()) {
		t.Fatal("Concurrent.WriteTo differs from GSketch.WriteTo on quiesced state")
	}

	restored, err := ReadGSketch(&locked)
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]EdgeQuery, 0, 500)
	for i := 0; i < 500; i++ {
		qs = append(qs, EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	want := c.EstimateBatch(qs)
	got := NewConcurrent(restored).EstimateBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v != live %+v", i, got[i], want[i])
		}
	}
}

// TestConcurrentWriteToUnderWriters snapshots while writer goroutines keep
// pushing batches; every snapshot must deserialize into a valid sketch.
// Run with -race this exercises the stripe-lock acquisition ordering.
func TestConcurrentWriteToUnderWriters(t *testing.T) {
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 72}, batchTestStream(2000, 72), nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(g)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			batch := batchTestStream(512, seed)
			for {
				select {
				case <-stop:
					return
				default:
					c.UpdateBatch(batch)
				}
			}
		}(uint64(100 + w))
	}
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if _, err := c.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadGSketch(&buf); err != nil {
			t.Fatalf("snapshot %d does not load: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentWriteToGlobalRoundTrips: a wrapped Global Sketch
// serializes, and the loaded copy answers as the live one does.
func TestConcurrentWriteToGlobalRoundTrips(t *testing.T) {
	gs, err := BuildGlobalSketch(Config{TotalWidth: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(gs)
	edges := batchTestStream(5_000, 3)
	c.UpdateBatch(edges)
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPartitions() != 0 || back.Count() != c.Count() {
		t.Fatalf("loaded %d partitions, count %d; want 0, %d", back.NumPartitions(), back.Count(), c.Count())
	}
	qs := batchQueries(edges, 1_000)
	want := c.EstimateBatch(qs)
	for i, r := range NewConcurrent(back).EstimateBatch(qs) {
		if r != want[i] {
			t.Fatalf("query %d: loaded %+v, live %+v", i, r, want[i])
		}
	}
}

// TestConcurrentRlockHoldsTwoStripes: a query chunk touching shards on two
// stripes read-locks both, and runlock releases both.
func TestConcurrentRlockHoldsTwoStripes(t *testing.T) {
	c := NewConcurrent(buildBatchTestSketch(t, 41))
	if len(c.stripes) < 2 {
		t.Fatalf("one lock stripe (%d shards)", c.NumShards())
	}
	// The first two probes that route to different stripes.
	var qs []EdgeQuery
	var want uint64
	for _, e := range batchTestStream(1000, 9) {
		st := c.stripeOf(c.g.routeMixed(hashutil.Mix64(e.Src), e.Src))
		if want&(1<<st) == 0 {
			want |= 1 << st
			qs = append(qs, EdgeQuery{Src: e.Src, Dst: e.Dst})
		}
		if len(qs) == 2 {
			break
		}
	}
	if len(qs) < 2 {
		t.Fatal("every probe routes to one stripe")
	}
	gr := c.pool.Get().(*grouping)
	defer c.pool.Put(gr)
	gr.routeQueries(c.g, qs)
	set := c.rlock(gr.touched)
	if set != want {
		t.Fatalf("rlock locked stripes %b, the chunk touches %b", set, want)
	}
	for s := set; s != 0; s &= s - 1 {
		if st := bits.TrailingZeros64(s); c.stripes[st].TryLock() {
			t.Fatalf("stripe %d write-locked under the chunk's read lock", st)
		}
	}
	c.runlock(set)
	for s := set; s != 0; s &= s - 1 {
		st := bits.TrailingZeros64(s)
		if !c.stripes[st].TryLock() {
			t.Fatalf("stripe %d still locked after runlock", st)
		}
		c.stripes[st].Unlock()
	}
}
