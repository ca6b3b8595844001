package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// foldModes are the update modes a run is folded under: the bank's plain and
// conservative kernels at the fixture's 8 columns a shard, and the plain
// kernel at wideShard columns, where the fixtures' few keys per shard do not
// collide — so every estimate is the key's exact count, and an arrival
// folded into the wrong key would show in the answers as well as the cells.
var foldModes = []struct {
	name  string
	cfg   Config
	width int
}{
	{"plain", Config{}, 8},
	{"conservative", Config{Conservative: true}, 8},
	{"wide", Config{}, wideShard},
}

// wideShard is the "wide" fold mode's shard width.
const wideShard = 1024

// assertExactCounts checks the "wide" mode's precondition on a sketch fed
// edges: every edge's estimate, read straight from its shard's CountMin (no
// routed-read hit), is its exact count — the saturating sum of its
// increments, capped at a cell's 2³²−1. A fixture whose keys start to
// collide fails here rather than pass the comparisons weakly.
func assertExactCounts(tb testing.TB, g *GSketch, edges []stream.Edge) {
	tb.Helper()
	truth := make(map[[2]uint64]int64)
	for _, e := range edges {
		k := [2]uint64{e.Src, e.Dst}
		truth[k] = sketch.AddVolume(truth[k], e.Increment())
	}
	for k, n := range truth {
		got := g.bank.Sketch(g.Route(k[0])).Estimate(stream.EdgeKey(k[0], k[1]))
		if want := min(n, math.MaxUint32); got != want {
			tb.Fatalf("edge %v: estimate %d, exact count %d: the fixture's keys collide", k, got, want)
		}
	}
}

// foldRuns is the reference coalescing: one edge per maximal run of adjacent
// arrivals of one (Src, Dst), weighing the run's saturating increment sum.
func foldRuns(edges []stream.Edge) []stream.Edge {
	var out []stream.Edge
	for i, e := range edges {
		if i > 0 && e.Src == edges[i-1].Src && e.Dst == edges[i-1].Dst {
			last := &out[len(out)-1]
			last.Weight = sketch.AddVolume(last.Weight, e.Increment())
			continue
		}
		e.Weight = e.Increment()
		out = append(out, e)
	}
	return out
}

// runStream draws n arrivals in runs of 1 to 8 over a small alphabet — source
// 0 (the router's out-of-line key), routed sources and unrouted ones (the
// outlier shard), two destinations — with weights drawn from weights.
func runStream(n int, seed uint64, weights []int64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	srcs := []uint64{0, 1, 2, 5, 100_000, 100_001}
	edges := make([]stream.Edge, 0, n)
	for len(edges) < n {
		e := stream.Edge{Src: srcs[rng.Uint64()%uint64(len(srcs))], Dst: rng.Uint64() % 2}
		for run := 1 + rng.Uint64()%8; run > 0 && len(edges) < n; run-- {
			e.Weight = weights[rng.Uint64()%uint64(len(weights))]
			edges = append(edges, e)
		}
	}
	return edges
}

// sketchState is g's counters as bytes: its snapshot.
func sketchState(tb testing.TB, g *GSketch) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// assertRunsFoldExactly feeds edges per edge with Update, in stream order, to
// one sketch, and cut into consecutive batches of the sizes in cuts (cycled)
// through UpdateBatch to a bare and a Concurrent sketch of the same layout,
// shards width columns wide. All three must hold the same counters, stream
// total and routed-write counts — every arrival counted — and answer one
// query batch alike. At wideShard the per-edge reference must count every
// edge exactly.
func assertRunsFoldExactly(t *testing.T, shards int, outlier bool, cfg Config, width int, edges []stream.Edge, cuts ...int) {
	t.Helper()
	seq := groupedSketchWith(t, shards, outlier, cfg, width)
	for _, e := range edges {
		seq.Update(e)
	}
	if width >= wideShard {
		assertExactCounts(t, seq, edges)
	}
	qs := batchQueries(edges, 64)
	want := seq.EstimateBatch(qs)
	wantState := sketchState(t, seq)

	bare := groupedSketchWith(t, shards, outlier, cfg, width)
	conc := NewConcurrent(groupedSketchWith(t, shards, outlier, cfg, width))
	for _, est := range []Estimator{bare, conc} {
		rest := edges
		for i := 0; len(rest) > 0; i++ {
			n := min(cuts[i%len(cuts)], len(rest))
			est.UpdateBatch(rest[:n])
			rest = rest[n:]
		}
		g := bare
		if c, ok := est.(*Concurrent); ok {
			g = c.g
		}
		if !bytes.Equal(sketchState(t, g), wantState) {
			t.Fatalf("%T: batch state differs from sequential Update", est)
		}
		if est.Count() != seq.Count() {
			t.Fatalf("%T: Count %d, sequential %d", est, est.Count(), seq.Count())
		}
		got := est.EstimateBatch(qs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%T: query %d: batch %+v, sequential %+v", est, i, got[i], want[i])
			}
		}
		rs := est.(RouteStatsSource)
		for _, dir := range []struct {
			name      string
			got, want RouteCounts
		}{
			{"write", rs.WriteRouteCounts(), seq.WriteRouteCounts()},
			{"read", rs.ReadRouteCounts(), seq.ReadRouteCounts()},
		} {
			if !slices.Equal(dir.got.Partitions, dir.want.Partitions) || dir.got.Outlier != dir.want.Outlier || dir.got.Total != dir.want.Total {
				t.Fatalf("%T: %s route counts %+v, sequential %+v", est, dir.name, dir.got, dir.want)
			}
		}
		if w := rs.WriteRouteCounts().Total; w != int64(len(edges)) {
			t.Fatalf("%T: %d routed writes, want one per arrival (%d)", est, w, len(edges))
		}
	}
}

// TestUpdateBatchFoldsRuns is the coalescing equivalence property: folding
// each run of adjacent equal edges into one position leaves every observable
// — counters, stream total, routed-write counts, answers — where per-edge
// Update in stream order leaves them, in every update mode, whether the runs
// fill a batch, never form, or cross a batch boundary.
func TestUpdateBatchFoldsRuns(t *testing.T) {
	const big = int64(1) << 62
	a := stream.Edge{Src: 1, Dst: 7}
	b := stream.Edge{Src: 1, Dst: 8} // same source, so the same shard as a
	c := stream.Edge{Src: 100_000, Dst: 7}
	repeat := func(n int, es ...stream.Edge) []stream.Edge {
		var out []stream.Edge
		for i := 0; i < n; i++ {
			e := es[i%len(es)]
			e.Weight = int64(i % 4) // 0 counts as 1
			out = append(out, e)
		}
		return out
	}
	inputs := []struct {
		name  string
		edges []stream.Edge
		cuts  []int
	}{
		{"one edge, whole batch", repeat(300, a), []int{300}},
		{"one edge, cut batches", repeat(300, a), []int{7, 1, 64}},
		{"alternating, no runs", repeat(300, a, b), []int{256}},
		{"alternating shards", repeat(300, a, c, b), []int{5, 256}},
		{"runs across cuts", runStream(3000, 1, []int64{0, 1, 2, 3}), []int{1, 7, 33, 256}},
		{"zero and explicit weights", runStream(3000, 2, []int64{0, 0, 1, 5, 1000}), []int{512}},
		{"saturating runs", runStream(2000, 3, []int64{0, 1, big, big + 3, math.MaxInt64}), []int{3, 100, 1000}},
		{"source 0 and outliers", []stream.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 0, Weight: 4}, {Src: 100_000}, {Src: 100_000}, {Src: 0}}, []int{2, 3}},
	}
	for _, mode := range foldModes {
		for _, in := range inputs {
			for _, layout := range []struct {
				shards  int
				outlier bool
			}{{3, false}, {65, true}} {
				name := fmt.Sprintf("%s/%s/shards=%d", mode.name, in.name, layout.shards)
				t.Run(name, func(t *testing.T) {
					assertRunsFoldExactly(t, layout.shards, layout.outlier, mode.cfg, mode.width, in.edges, in.cuts...)
				})
			}
		}
	}
}

// TestGroupedRunsStraddleBlock: the routing pass takes a batch in blocks of
// routeBlock runs, and a run is never split — a run that starts at the last
// position of a block spans arrivals past it, and the next run opens the
// next block. Runs ending a block, opening one and covering arrival
// routeBlock mid-block must still leave counters, stream total and route
// counts where per-edge Update leaves them, whole or cut at block sizes.
func TestGroupedRunsStraddleBlock(t *testing.T) {
	// straddle puts a run of n arrivals after lead single arrivals — so the
	// run is position lead — and follows it with a second run and 100 more
	// single arrivals over routed, outlier and zero sources.
	straddle := func(lead, n int) []stream.Edge {
		var edges []stream.Edge
		single := func(i int) stream.Edge {
			src := uint64(i % 7)
			if i%5 == 0 {
				src = 100_000 + uint64(i)
			}
			return stream.Edge{Src: src, Dst: uint64(i), Weight: int64(i % 3)}
		}
		for i := range lead {
			edges = append(edges, single(i))
		}
		for i := range n {
			edges = append(edges, stream.Edge{Src: 1, Dst: 1 << 20, Weight: int64(i % 4)})
		}
		for i := range 3 {
			edges = append(edges, stream.Edge{Src: 100_000, Dst: 1 << 21, Weight: int64(i)})
		}
		for i := range 100 {
			edges = append(edges, single(lead+i))
		}
		return edges
	}
	for _, in := range []struct {
		name      string
		lead, run int
	}{
		{"run ends block", routeBlock - 1, 5},
		{"run opens block", routeBlock, 5},
		{"run covers arrival 64 mid-block", routeBlock - 4, 10},
		{"run ends second block", 2*routeBlock - 1, 3},
	} {
		edges := straddle(in.lead, in.run)
		for _, mode := range foldModes {
			t.Run(mode.name+"/"+in.name, func(t *testing.T) {
				assertRunsFoldExactly(t, 65, true, mode.cfg, mode.width, edges, len(edges))
				assertRunsFoldExactly(t, 65, true, mode.cfg, mode.width, edges, routeBlock, routeBlock+1, 2*routeBlock+1)
			})
		}
	}
}

// TestSaturatedRunsPinVolume: runs whose weights sum past MaxInt64 pin every
// volume — the stream total, the shard's N_i, the answer's StreamTotal — at
// MaxInt64, and the ε·N_i bounds stay non-negative, where a wrapping sum
// would read them negative.
func TestSaturatedRunsPinVolume(t *testing.T) {
	const big = 1 << 62
	for _, edges := range [][]stream.Edge{
		// A run past MaxInt64, then one more edge.
		{{Src: 1, Dst: 2, Weight: big}, {Src: 1, Dst: 2, Weight: big}, {Src: 1, Dst: 3, Weight: big}},
		// Four runs of one edge each, whose wrapping sum is exactly 0.
		{{Src: 1, Dst: 2, Weight: big}, {Src: 1, Dst: 3, Weight: big}, {Src: 1, Dst: 2, Weight: big}, {Src: 1, Dst: 3, Weight: big}},
	} {
		for _, mode := range foldModes {
			c := NewConcurrent(groupedSketchWith(t, 3, false, mode.cfg, mode.width))
			c.UpdateBatch(edges)
			if got := c.Count(); got != math.MaxInt64 {
				t.Fatalf("%s: Count = %d, want MaxInt64", mode.name, got)
			}
			for _, r := range c.EstimateBatch([]EdgeQuery{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 2}}) {
				if r.StreamTotal != math.MaxInt64 || r.ErrorBound < 0 || r.Estimate < 0 {
					t.Fatalf("%s: %+v, want StreamTotal MaxInt64 and non-negative bounds", mode.name, r)
				}
			}
			if r := c.EstimateBatch([]EdgeQuery{{Src: 1, Dst: 2}})[0]; r.ErrorBound == 0 {
				t.Fatalf("%s: the loaded shard reports a zero bound: its N_i wrapped", mode.name)
			}
		}
	}
}

// TestNegativeWeightStopsRun: a negative weight never joins a run, so the
// kernel still sees it as it arrived and refuses the batch, where folding it
// into a positive neighbour (5 + −3) would have hidden it.
func TestNegativeWeightStopsRun(t *testing.T) {
	for _, edges := range [][]stream.Edge{
		{{Src: 1, Dst: 2, Weight: 5}, {Src: 1, Dst: 2, Weight: -3}},
		{{Src: 1, Dst: 2, Weight: -3}, {Src: 1, Dst: 2, Weight: 5}},
		{{Src: 1, Dst: 2, Weight: -5}, {Src: 1, Dst: 2, Weight: -5}},
	} {
		g := groupedSketch(t, 3, false)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("UpdateBatch(%v) did not panic", edges)
				}
			}()
			g.UpdateBatch(edges)
		}()
	}
}

// FuzzUpdateBatchRuns checks coalescing against per-edge Update on arbitrary
// batches. Each input byte is one arrival over a four-edge alphabet —
// source 0, a routed source and an outlier, so adjacent repeats are common —
// with a weight from {0, 1, small, ≥ 2⁶²}; the first byte cuts the batch at
// 1 to 256 arrivals, so a batch can hold more runs than one routing block
// (routeBlock) and its runs can end a block or start the next.
func FuzzUpdateBatchRuns(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 0})
	f.Add([]byte{1, 0x00, 0x41, 0x00, 0x41, 0xc2, 0xc2, 0xc2})
	f.Add([]byte{7, 0xff, 0xfe, 0x03, 0x03, 0x83, 0x83, 0x10, 0x10, 0x10})
	long := []byte{200}
	for i := range 300 {
		long = append(long, byte(i*37)^byte(i>>3))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 512 {
			return
		}
		cut := 1 + int(data[0])
		srcs := [4]uint64{0, 1, 2, 100_000}
		edges := make([]stream.Edge, len(data)-1)
		for i, b := range data[1:] {
			e := stream.Edge{Src: srcs[b&3], Dst: uint64(b>>2) & 1}
			switch b >> 6 {
			case 1:
				e.Weight = 1
			case 2:
				e.Weight = 2 + int64(b>>3&7)
			case 3:
				e.Weight = 1<<62 + int64(b>>3&7)
			}
			edges[i] = e
		}
		for _, conservative := range []bool{false, true} {
			cfg := Config{Conservative: conservative}
			seq := groupedSketchWith(t, 4, true, cfg, 8)
			batch := groupedSketchWith(t, 4, true, cfg, 8)
			for _, e := range edges {
				seq.Update(e)
			}
			for rest := edges; len(rest) > 0; {
				n := min(cut, len(rest))
				batch.UpdateBatch(rest[:n])
				rest = rest[n:]
			}
			if !bytes.Equal(sketchState(t, batch), sketchState(t, seq)) {
				t.Fatalf("conservative=%v: UpdateBatch state differs from sequential Update on %v", conservative, edges)
			}
			if batch.Count() != seq.Count() || batch.WriteRouteCounts().Total != int64(len(edges)) {
				t.Fatalf("conservative=%v: Count %d / writes %d, sequential %d / %d",
					conservative, batch.Count(), batch.WriteRouteCounts().Total, seq.Count(), len(edges))
			}
		}
	})
}
