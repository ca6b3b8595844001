package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 128,
			Dst:    rng.Uint64() % 512,
			Weight: 1,
		}
	}
	return edges
}

func TestGSketchBuildAndQuery(t *testing.T) {
	edges := testStream(20000, 1)
	sample := edges[:2000]
	g, err := BuildGSketch(Config{TotalBytes: 64 << 10, Seed: 7}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)

	if g.Count() != exact.Total() {
		t.Errorf("count = %d, want %d", g.Count(), exact.Total())
	}
	// CountMin never underestimates, and routing is deterministic, so
	// every estimate must dominate the truth.
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if est := g.EstimateEdge(src, dst); est < f {
			t.Fatalf("edge (%d,%d): estimate %d < truth %d", src, dst, est, f)
		}
		return true
	})
	if g.NumPartitions() < 1 {
		t.Error("no partitions built")
	}
	if g.Order() != vstats.ByAvgFreq {
		t.Errorf("order = %v, want ByAvgFreq without workload", g.Order())
	}
}

func TestGSketchWorkloadSelectsScenarioB(t *testing.T) {
	edges := testStream(5000, 2)
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 7}, edges[:500], edges[500:700])
	if err != nil {
		t.Fatal(err)
	}
	if g.Order() != vstats.ByFreqPerWeight {
		t.Errorf("order = %v, want ByFreqPerWeight with workload", g.Order())
	}
}

func TestGSketchOutlierRouting(t *testing.T) {
	// Sample covers only sources 0..9; stream also has 100..109, which
	// must route to the outlier sketch.
	var sample []stream.Edge
	for i := uint64(0); i < 10; i++ {
		sample = append(sample, stream.Edge{Src: i, Dst: 1, Weight: 1})
	}
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 3}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if _, ok := g.PartitionOf(i); !ok {
			t.Errorf("sampled vertex %d not routed", i)
		}
	}
	if _, ok := g.PartitionOf(100); ok {
		t.Error("unsampled vertex claims a partition")
	}
	if g.OutlierWidth() == 0 {
		t.Fatal("outlier sketch missing")
	}
	for i := uint64(100); i < 110; i++ {
		g.Update(stream.Edge{Src: i, Dst: 5, Weight: 2})
	}
	if g.OutlierCount() != 20 {
		t.Errorf("outlier volume = %d, want 20", g.OutlierCount())
	}
	if est := g.EstimateEdge(100, 5); est < 2 {
		t.Errorf("outlier estimate = %d, want ≥ 2", est)
	}
}

func TestGSketchOutlierDisabled(t *testing.T) {
	sample := testStream(1000, 4)
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 3, OutlierFraction: -1}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.OutlierWidth() != 0 {
		t.Errorf("outlier width = %d, want 0 when disabled", g.OutlierWidth())
	}
	// Unseen vertices fall back to partition 0; updates must not panic
	// and estimates stay sound.
	g.Update(stream.Edge{Src: 1 << 40, Dst: 1, Weight: 3})
	if est := g.EstimateEdge(1<<40, 1); est < 3 {
		t.Errorf("fallback estimate = %d, want ≥ 3", est)
	}
}

func TestGSketchMemoryWithinBudget(t *testing.T) {
	for _, budget := range []int{16 << 10, 64 << 10, 256 << 10} {
		g, err := BuildGSketch(Config{TotalBytes: budget, Seed: 5}, testStream(3000, 5), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.MemoryBytes(); got > budget {
			t.Errorf("budget %d: memory %d exceeds it", budget, got)
		}
		// Should also use most of the budget (≥ 80%): the partitioner
		// conserves width up to integer division effects.
		if got := g.MemoryBytes(); got < budget*8/10 {
			t.Errorf("budget %d: memory %d underuses it", budget, got)
		}
		if g.RouterBytes() <= 0 {
			t.Error("router bytes unreported")
		}
	}
}

func TestGSketchErrorBound(t *testing.T) {
	edges := testStream(10000, 6)
	g, _ := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 5}, edges[:1000], nil)
	Populate(g, edges)
	if b := g.ErrorBound(edges[0].Src); b <= 0 {
		t.Errorf("error bound = %v, want > 0 after populate", b)
	}
	// Unseen vertex: bound comes from the outlier sketch.
	if b := g.ErrorBound(1 << 50); b < 0 {
		t.Errorf("outlier bound = %v", b)
	}
}

func TestGSketchZeroWeightCountsAsOne(t *testing.T) {
	g, _ := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: 5}, testStream(100, 7), nil)
	g.Update(stream.Edge{Src: 1, Dst: 2}) // Weight 0
	if g.Count() != 1 {
		t.Errorf("count = %d, want 1 (zero weight defaults to 1)", g.Count())
	}
}

func TestGSketchConfigValidation(t *testing.T) {
	sample := testStream(100, 8)
	cases := []Config{
		{},                                   // no budget
		{TotalBytes: 1 << 20, TotalWidth: 5}, // both budgets
		{TotalBytes: 1 << 20, Depth: -1},
		{TotalBytes: 1 << 20, OutlierFraction: 1.5},
		{TotalBytes: 1 << 20, MinWidth: 1},
		{TotalBytes: 1 << 20, CollisionC: 2},
		{TotalBytes: 1 << 20, MaxPartitions: -2},
	}
	for i, cfg := range cases {
		if _, err := BuildGSketch(cfg, sample, nil); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if _, err := BuildGSketch(Config{TotalBytes: 1 << 20}, nil, nil); !errors.Is(err, ErrEmptySample) {
		t.Errorf("empty sample error = %v", err)
	}
	// Budget too small to fit outlier + partitions.
	if _, err := BuildGSketch(Config{TotalWidth: 1}, sample, nil); err == nil {
		t.Error("width 1 with outlier accepted")
	}
}

func TestGSketchDeterministic(t *testing.T) {
	edges := testStream(5000, 10)
	build := func() *GSketch {
		g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 42}, edges[:500], nil)
		if err != nil {
			t.Fatal(err)
		}
		Populate(g, edges)
		return g
	}
	a, b := build(), build()
	f := func(src, dst uint64) bool {
		return a.EstimateEdge(src%128, dst%512) == b.EstimateEdge(src%128, dst%512)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestGlobalSketchBaseline(t *testing.T) {
	edges := testStream(20000, 11)
	g, err := BuildGlobalSketch(Config{TotalBytes: 64 << 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	if g.Count() != exact.Total() {
		t.Errorf("count = %d, want %d", g.Count(), exact.Total())
	}
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if est := g.EstimateEdge(src, dst); est < f {
			t.Fatalf("edge (%d,%d): estimate %d < truth %d", src, dst, est, f)
		}
		return true
	})
	if g.TotalWidth() <= 0 || g.Depth() != DefaultDepth {
		t.Errorf("dims = %dx%d", g.Depth(), g.TotalWidth())
	}
	if g.NumPartitions() != 0 || g.NumShards() != 1 || g.OutlierWidth() != g.TotalWidth() {
		t.Errorf("layout: %d partitions, %d shards, outlier width %d of %d",
			g.NumPartitions(), g.NumShards(), g.OutlierWidth(), g.TotalWidth())
	}
	if g.ErrorBound(0) <= 0 {
		t.Error("error bound not positive after populate")
	}
	if g.MemoryBytes() > 64<<10 {
		t.Error("memory exceeds budget")
	}
}

func TestGlobalSketchExplicitWidth(t *testing.T) {
	g, err := BuildGlobalSketch(Config{TotalWidth: 1000, Depth: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.TotalWidth() != 1000 || g.Depth() != 4 {
		t.Errorf("dims = %dx%d, want 4x1000", g.Depth(), g.TotalWidth())
	}
}

// TestGlobalSketchIsCountMin: the leafless gSketch BuildGlobalSketch returns
// counts exactly as the §3.2 CountMin over edge keys with the same width,
// depth and seed — with conservative update on and off, through the single
// and the batched (run-folding) write paths — and every source's bound is
// the global e·N/w.
func TestGlobalSketchIsCountMin(t *testing.T) {
	var edges []stream.Edge
	for i, e := range batchTestStream(20_000, 29) {
		e.Src %= 300
		for r := 0; r <= i%3; r++ { // runs of adjacent equal arrivals
			edges = append(edges, e)
		}
	}
	for _, conservative := range []bool{false, true} {
		cfg := Config{TotalWidth: 1500, Depth: 4, Seed: 29, Conservative: conservative}
		g, err := BuildGlobalSketch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := sketch.NewCountMin(cfg.TotalWidth, cfg.Depth, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		cm.SetConservative(conservative)
		half := len(edges) / 2
		for _, e := range edges[:half] {
			g.Update(e)
		}
		Populate(g, edges[half:])
		var n int64
		for _, e := range edges {
			cm.Update(stream.EdgeKey(e.Src, e.Dst), e.Increment())
			n += e.Increment()
		}
		if g.Count() != n || g.MemoryBytes() != cm.MemoryBytes() {
			t.Fatalf("conservative=%v: count %d, %d bytes; want %d, %d bytes",
				conservative, g.Count(), g.MemoryBytes(), n, cm.MemoryBytes())
		}
		wantBound := math.E * float64(n) / float64(cfg.TotalWidth)
		for src := uint64(0); src < 310; src++ {
			for dst := uint64(0); dst < 60; dst++ {
				if got, want := g.EstimateEdge(src, dst), cm.Estimate(stream.EdgeKey(src, dst)); got != want {
					t.Fatalf("conservative=%v: (%d,%d) estimates %d, CountMin %d", conservative, src, dst, got, want)
				}
			}
			if got := g.ErrorBound(src); got != wantBound {
				t.Fatalf("conservative=%v: ErrorBound(%d) = %v, want e·N/w = %v", conservative, src, got, wantBound)
			}
		}
	}
}

func TestDimsFromErrorReexport(t *testing.T) {
	w, d, err := DimsFromError(0.001, 0.01)
	if err != nil || w <= 0 || d <= 0 {
		t.Errorf("DimsFromError = %d,%d,%v", w, d, err)
	}
}
