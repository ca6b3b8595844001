package adapt

import (
	"bytes"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

var windowBuild = core.Config{TotalBytes: 32 << 10, Seed: 4}

// windowChain is a windowed chain of the given span whose bootstrap head is
// the Global Sketch, as a windowed engine opened WithGlobal starts.
func windowChain(t *testing.T, span int64, cfg ChainConfig) *Chain {
	t.Helper()
	g, err := core.BuildGlobalSketch(windowBuild)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(g, cfg)
	c.SetWindows(span, windowBuild)
	return c
}

// timed stamps a stream with times lo, lo+1, ….
func timed(edges []stream.Edge, lo int64) []stream.Edge {
	out := make([]stream.Edge, len(edges))
	for i, e := range edges {
		e.Time = lo + int64(i)
		out[i] = e
	}
	return out
}

// windows reads each generation's window index and partition count.
func windows(c *Chain) (idx []int64, parts []int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, g := range c.gens {
		k, ok := g.Meta().WindowIndex()
		if !ok {
			k = -1
		}
		idx = append(idx, k)
		parts = append(parts, g.Sketch().NumPartitions())
	}
	return idx, parts
}

// An in-order stream over windows 0..3 makes four generations: the
// bootstrap head takes window 0, and each later window is partitioned from
// the reservoir of the window before it. In one-edge batches or longer
// ones, the windows are the same, byte for byte.
func TestWindowChainRollsOver(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 200, Seed: 1})
	one := windowChain(t, 100, ChainConfig{SampleSize: 200, Seed: 1})
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }
	c.SetClock(clock)
	one.SetClock(clock)
	edges := timed(testStream(350, 2), 0)
	c.UpdateBatch(edges[:10])
	c.UpdateBatch(edges[10:])
	for _, e := range edges {
		one.UpdateBatch([]stream.Edge{e})
	}
	var a, b bytes.Buffer
	if _, err := c.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := one.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("batched and per-edge windows differ")
	}
	idx, parts := windows(c)
	if want := []int64{0, 1, 2, 3}; !slices.Equal(idx, want) {
		t.Fatalf("window indices %v, want %v", idx, want)
	}
	if parts[0] != 0 {
		t.Errorf("window 0 has %d partitions, want the bootstrap Global Sketch", parts[0])
	}
	for i := 1; i < len(parts); i++ {
		if parts[i] == 0 {
			t.Errorf("window %d is not partitioned despite the reservoir of window %d", i, i-1)
		}
	}
	if got := c.Count(); got != 350 {
		t.Fatalf("count %d, want 350", got)
	}
}

// A gap in time opens one window, the one the edge falls in, as a Global
// Sketch: the skipped windows held nothing to sample. A far-future edge a
// million spans on costs one sketch, not a million.
func TestWindowChainGapOpensOneGlobalWindow(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 200, Seed: 1})
	c.UpdateBatch(timed(testStream(100, 3), 0))
	const far = 1_000_000
	c.UpdateBatch(timed(testStream(100, 4), 300))
	c.UpdateBatch([]stream.Edge{{Src: 1, Dst: 2, Weight: 5, Time: far * 100}})
	idx, parts := windows(c)
	if want := []int64{0, 3, far}; !slices.Equal(idx, want) {
		t.Fatalf("window indices %v, want %v", idx, want)
	}
	if parts[1] != 0 || parts[2] != 0 {
		t.Fatalf("windows after a gap have %v partitions, want Global Sketches", parts[1:])
	}
	if got := c.EstimateWindow([]core.EdgeQuery{{Src: 1, Dst: 2}}, far*100, far*100+99)[0].Estimate; got < 5 {
		t.Fatalf("far window answers %d, below truth 5", got)
	}
}

// Late edges and negative times are counted in the head: nothing leaves the
// all-time count, and no rotation runs backwards.
func TestWindowChainLateAndNegativeTimes(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 200, Seed: 1})
	c.UpdateBatch([]stream.Edge{{Src: 1, Dst: 2, Time: -5}}) // before any window
	c.UpdateBatch(timed(testStream(200, 5), 0))
	c.UpdateBatch([]stream.Edge{
		{Src: 7, Dst: 8, Weight: 3, Time: 10},   // window 0, head is window 1
		{Src: 7, Dst: 8, Weight: 4, Time: -1},   // negative
		{Src: 9, Dst: 9, Weight: 1, Time: 250},  // window 2: rotates
		{Src: 7, Dst: 8, Weight: 2, Time: 150},  // late again
		{Src: 9, Dst: 9, Weight: 1, Time: -900}, // negative
	})
	idx, _ := windows(c)
	if want := []int64{0, 1, 2}; !slices.Equal(idx, want) {
		t.Fatalf("window indices %v, want %v", idx, want)
	}
	if got, want := c.Count(), int64(1+200+3+4+1+2+1); got != want {
		t.Fatalf("count %d, want %d", got, want)
	}
	// The head, window 2, holds the late (7,8) weight 2 and the last
	// negative edge.
	if got := c.EstimateWindow([]core.EdgeQuery{{Src: 7, Dst: 8}}, 200, 299)[0].Estimate; got < 2 {
		t.Fatalf("window 2 answers %d for the late edge, want ≥ 2", got)
	}
	if got := c.EstimateBatch([]core.EdgeQuery{{Src: 7, Dst: 8}})[0].Estimate; got < 9 {
		t.Fatalf("all-time estimate %d, want ≥ 9", got)
	}
}

// A window that starts within a span of MaxInt64 ends there: a query over
// its real times weighs it by 1, not by a share of a span that overflows.
func TestWindowChainClampAtMaxInt64(t *testing.T) {
	const span = 1000
	c := windowChain(t, span, ChainConfig{SampleSize: 16, Seed: 1})
	c.UpdateBatch([]stream.Edge{{Src: 1, Dst: 2, Weight: 7, Time: math.MaxInt64}})
	last := int64(math.MaxInt64 / span * span)
	q := []core.EdgeQuery{{Src: 1, Dst: 2}}
	if got := c.EstimateWindow(q, last, math.MaxInt64)[0].Estimate; got != 7 {
		t.Fatalf("last window answers %d, want 7", got)
	}
	if got := c.EstimateWindow(q, 0, last-1)[0].Estimate; got != 0 {
		t.Fatalf("range before the last window answers %d, want 0", got)
	}
}

// EstimateWindow weighs each window by the share of its times the range
// covers, and a range over every window reads what EstimateBatch reads.
func TestWindowChainOverlapWeights(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 64, Seed: 1})
	if got := c.EstimateWindow([]core.EdgeQuery{{Src: 1, Dst: 2}}, 0, 99)[0].Estimate; got != 0 {
		t.Fatalf("a chain with no window answers %d, want 0", got)
	}
	for w := int64(0); w < 3; w++ {
		c.UpdateBatch([]stream.Edge{{Src: 1, Dst: 2, Weight: 100, Time: w * 100}})
	}
	q := []core.EdgeQuery{{Src: 1, Dst: 2}}
	for _, tc := range []struct {
		t1, t2 int64
		want   int64
	}{
		{0, 99, 100},
		{50, 149, 100}, // half of window 0, half of window 1
		{0, 299, 300},
		{-1000, 1000, 300},
		{250, 274, 25},
		{300, 400, 0},
		{5, 4, 0}, // empty range
	} {
		if got := c.EstimateWindow(q, tc.t1, tc.t2)[0].Estimate; got < tc.want || got > tc.want+2 {
			t.Errorf("[%d, %d] answers %d, want %d", tc.t1, tc.t2, got, tc.want)
		}
	}
	all := c.EstimateWindow(q, math.MinInt64, math.MaxInt64)[0]
	if want := c.EstimateBatch(q)[0]; all.Estimate != want.Estimate || all.StreamTotal != want.StreamTotal {
		t.Fatalf("full timeline %+v, EstimateBatch %+v", all, want)
	}
}

// At its generation cap a windowed chain drops its oldest window, and its
// snapshot reads back with every window's index.
func TestWindowChainDropsOldestAtCap(t *testing.T) {
	c := windowChain(t, 10, ChainConfig{SampleSize: 16, Seed: 1, MaxGenerations: 3})
	for w := int64(0); w < 5; w++ {
		c.UpdateBatch([]stream.Edge{{Src: 1, Dst: 2, Time: w * 20}}) // every other window
	}
	idx, _ := windows(c)
	if want := []int64{4, 6, 8}; !slices.Equal(idx, want) {
		t.Fatalf("window indices %v, want %v", idx, want)
	}
	if got := c.Count(); got != 3 {
		t.Fatalf("count %d, want the 3 edges of the windows kept", got)
	}
	var buf bytes.Buffer
	if _, err := c.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, metas, err := core.ReadChainMeta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range metas {
		if k, ok := m.WindowIndex(); !ok || k != idx[i] {
			t.Fatalf("generation %d reads back window (%d, %v), want %d", i, k, ok, idx[i])
		}
	}
}

// Writers racing across window boundaries, late and negative times
// included, lose no edge: each lands in one window, and racing rotations
// keep one build per window. Run under -race.
func TestWindowChainRotationDuringIngestConservesCount(t *testing.T) {
	c := windowChain(t, 500, ChainConfig{SampleSize: 256, Seed: 1, MaxGenerations: 64})
	const writers, perWriter, batch = 4, 4000, 64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		edges := timed(testStream(perWriter, uint64(40+w)), 0)
		for i := range edges {
			switch i % 97 {
			case 0:
				edges[i].Time = -int64(i) // negative
			case 1:
				edges[i].Time = int64(i) / 4 // late
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(edges); lo += batch {
				c.UpdateBatch(edges[lo:min(lo+batch, len(edges))])
			}
		}()
	}
	wg.Wait()
	if got := c.Count(); got != writers*perWriter {
		t.Fatalf("count %d, want %d", got, writers*perWriter)
	}
	idx, _ := windows(c)
	for i := 1; i < len(idx); i++ {
		if idx[i] <= idx[i-1] {
			t.Fatalf("window indices %v are not increasing", idx)
		}
	}
	if len(idx) != perWriter/500 {
		t.Fatalf("%d windows, want %d", len(idx), perWriter/500)
	}
}

// An empty batch opens no window, and an empty query batch answers
// nothing: the bootstrap head keeps waiting for the first edge's window.
func TestWindowChainEmptyBatch(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 64, Seed: 1})
	c.UpdateBatch(nil)
	if idx, _ := windows(c); !slices.Equal(idx, []int64{-1}) {
		t.Fatalf("window indices %v after an empty batch, want the windowless bootstrap head", idx)
	}
	if got := c.EstimateWindow(nil, 0, 100); len(got) != 0 {
		t.Fatalf("an empty query batch returns %d answers", len(got))
	}
	c.UpdateBatch(timed(testStream(10, 6), 250))
	if idx, _ := windows(c); !slices.Equal(idx, []int64{2}) {
		t.Fatalf("window indices %v, want the first edge's window 2", idx)
	}
}

// One edge a million spans past the head opens one window, edge by edge or
// in a batch: the gap answers 0 and the far window never undercounts.
func TestWindowChainFarFutureGap(t *testing.T) {
	const span, gap = 60, 1_000_000
	far := int64(gap)*span + 7
	late := []stream.Edge{
		{Src: 3, Dst: 4, Weight: 2, Time: far},
		{Src: 3, Dst: 4, Weight: 1, Time: far + 1},
		{Src: 5, Dst: 6, Weight: 1, Time: far + 2},
	}
	for name, update := range map[string]func(*Chain, []stream.Edge){
		"one-edge": func(c *Chain, edges []stream.Edge) {
			for _, e := range edges {
				c.UpdateBatch([]stream.Edge{e})
			}
		},
		"UpdateBatch": func(c *Chain, edges []stream.Edge) { c.UpdateBatch(edges) },
	} {
		t.Run(name, func(t *testing.T) {
			c := windowChain(t, span, ChainConfig{SampleSize: 200, Seed: 1})
			update(c, timed(testStream(span, 7), 0))
			update(c, late)
			if idx, _ := windows(c); !slices.Equal(idx, []int64{0, gap}) {
				t.Fatalf("window indices %v, want [0 %d]", idx, gap)
			}
			q := []core.EdgeQuery{{Src: 3, Dst: 4}}
			if got := c.EstimateWindow(q, span, int64(gap)*span-1)[0].Estimate; got != 0 {
				t.Fatalf("the gap answers %d, want 0", got)
			}
			if got := c.EstimateWindow(q, int64(gap)*span, int64(gap+1)*span-1)[0].Estimate; got < 3 {
				t.Fatalf("the far window answers %d, below truth 3", got)
			}
			if got := c.Count(); got != span+4 {
				t.Fatalf("count %d, want %d", got, span+4)
			}
		})
	}
}

// On partitioned windows holding many keys, EstimateWindow answers a batch
// with exactly the values it gives each query alone, for whole, partial,
// oversized, one-tick and empty ranges.
func TestWindowChainEstimateWindowMatchesPerQuery(t *testing.T) {
	c := windowChain(t, 100, ChainConfig{SampleSize: 500, Seed: 1})
	edges := testStream(10_000, 61)
	for i := range edges {
		edges[i].Time = int64(i) / 20 // five windows of span 100
	}
	c.UpdateBatch(edges)
	if _, parts := windows(c); len(parts) != 5 || parts[1] == 0 {
		t.Fatalf("partitions per window %v, want five windows, the later ones partitioned", parts)
	}
	qs := make([]core.EdgeQuery, 0, 3000)
	for _, e := range edges[:1500] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
		qs = append(qs, core.EdgeQuery{Src: e.Src + 10_000, Dst: e.Dst}) // absent
	}
	for _, r := range [][2]int64{{0, 499}, {120, 380}, {-50, 10_000}, {250, 250}, {400, 100}} {
		got := c.EstimateWindow(qs, r[0], r[1])
		for i, q := range qs {
			if want := c.EstimateWindow([]core.EdgeQuery{q}, r[0], r[1])[0]; got[i] != want {
				t.Fatalf("[%d, %d] query %d (%d,%d): batch %+v, alone %+v", r[0], r[1], i, q.Src, q.Dst, got[i], want)
			}
		}
	}
}

// End to end: over five windows, each window-aligned range answers at or
// above the exact count of its edges, the all-time estimate never falls
// below truth, and the mean overestimate stays small for the budget.
func TestWindowChainAccuracyAgainstExact(t *testing.T) {
	const span = 1000
	c := windowChain(t, span, ChainConfig{SampleSize: 500, Seed: 3})
	edges := timed(testStream(5*span, 4), 0)
	for i := range edges {
		edges[i].Src %= 100
		edges[i].Dst %= 100
	}
	c.UpdateBatch(edges)
	for w := 0; w < 5; w++ {
		exact := stream.NewExactCounter()
		exact.ObserveAll(edges[w*span : (w+1)*span])
		var qs []core.EdgeQuery
		var truth []int64
		exact.RangeEdges(func(src, dst uint64, f int64) bool {
			qs = append(qs, core.EdgeQuery{Src: src, Dst: dst})
			truth = append(truth, f)
			return true
		})
		got := c.EstimateWindow(qs, int64(w*span), int64((w+1)*span-1))
		for i, q := range qs {
			if got[i].Estimate < truth[i] {
				t.Fatalf("window %d (%d,%d): %d below the exact %d", w, q.Src, q.Dst, got[i].Estimate, truth[i])
			}
		}
	}
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	var over, n float64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		est := c.EstimateBatch([]core.EdgeQuery{{Src: src, Dst: dst}})[0].Estimate
		if est < f {
			t.Fatalf("all-time estimate %d below truth %d for (%d,%d)", est, f, src, dst)
		}
		over += float64(est - f)
		n++
		return true
	})
	if mean := over / n; mean > 5 {
		t.Errorf("mean overestimate %v too large for this budget", mean)
	}
}

// Over 257 windows, an answer still holds at one generation's δ: the
// gather splits δ across the windows, so the confidence stays 1 - e^-d and
// the bound finite, and no more than e^-d of the answers exceed it.
func TestWindowChainBoundAtOneDelta(t *testing.T) {
	const windows, span = 257, 100
	build := core.Config{TotalBytes: 4 << 10, Seed: 5}
	g, err := core.BuildGlobalSketch(build)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChain(g, ChainConfig{SampleSize: 64, Seed: 5, MaxGenerations: core.MaxChainGenerations})
	c.SetWindows(span, build)
	edges := testStream(windows*span, 8)
	for i := range edges {
		edges[i].Src += uint64(i%97) << 8 // ~25 000 distinct edges
		edges[i].Time = int64(i)
	}
	c.UpdateBatch(edges)
	if got := c.Generations(); got != windows {
		t.Fatalf("%d generations, want %d", got, windows)
	}
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	var qs []core.EdgeQuery
	var truth []int64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		qs = append(qs, core.EdgeQuery{Src: src, Dst: dst})
		truth = append(truth, f)
		return true
	})
	if len(qs) < 20_000 {
		t.Fatalf("%d distinct edges, want at least 20 000 queries", len(qs))
	}
	for name, res := range map[string][]core.Result{
		"all":    c.EstimateBatch(qs),
		"window": c.EstimateWindow(qs, 0, windows*span-1),
	} {
		delta := math.Exp(-float64(g.Depth()))
		over := 0
		for i, r := range res {
			if r.Confidence != 1-delta || math.IsInf(r.ErrorBound, 0) || math.IsNaN(r.ErrorBound) {
				t.Fatalf("%s: query %d confidence %v bound %v, want %v and a finite bound", name, i, r.Confidence, r.ErrorBound, 1-delta)
			}
			if float64(r.Estimate-truth[i]) > r.ErrorBound {
				over++
			}
		}
		if share := float64(over) / float64(len(qs)); share > delta {
			t.Errorf("%s: %d of %d answers (%.4f) exceed their bound, allowed %.4f", name, over, len(qs), share, delta)
		}
	}
}
