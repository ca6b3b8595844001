package core

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/graphstream/gsketch/internal/hashutil"
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
	if g.Width() <= 0 || g.Depth() != DefaultDepth {
		t.Errorf("dims = %dx%d", g.Depth(), g.Width())
	}
	if g.ErrorBound() <= 0 {
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
	if g.Width() != 1000 || g.Depth() != 4 {
		t.Errorf("dims = %dx%d, want 4x1000", g.Depth(), g.Width())
	}
}

func TestDimsFromErrorReexport(t *testing.T) {
	w, d, err := DimsFromError(0.001, 0.01)
	if err != nil || w <= 0 || d <= 0 {
		t.Errorf("DimsFromError = %d,%d,%v", w, d, err)
	}
}
