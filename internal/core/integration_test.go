package core

import (
	"testing"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

// End-to-end accuracy: the paper's headline claim — gSketch beats the
// Global Sketch baseline on average relative error — must hold on all
// three (scaled-down) dataset stand-ins under memory pressure.

func evalARE(t *testing.T, est *GSketch, exact *stream.ExactCounter, seed uint64) float64 {
	t.Helper()
	// Distinct-uniform edge queries, as in the experiment harness.
	edges := exact.Edges()
	if len(edges) == 0 {
		t.Fatal("empty stream")
	}
	var sum float64
	n := 0
	rng := newTestRNG(seed)
	for i := 0; i < 2000; i++ {
		e := edges[int(rng()%uint64(len(edges)))]
		truth := float64(exact.EdgeFrequency(e.Src, e.Dst))
		got := float64(est.EstimateEdge(e.Src, e.Dst))
		sum += got/truth - 1
		n++
	}
	return sum / float64(n)
}

func newTestRNG(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		return z
	}
}

func reservoir(edges []stream.Edge, frac float64, seed uint64) []stream.Edge {
	n := int(float64(len(edges)) * frac)
	r := stream.NewReservoir(n, seed)
	r.ObserveAll(edges)
	out := make([]stream.Edge, len(r.Sample()))
	copy(out, r.Sample())
	return out
}

func assertGSketchWins(t *testing.T, name string, edges, sample []stream.Edge, budget int, margin float64) {
	t.Helper()
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)

	cfg := Config{TotalBytes: budget, Seed: 7}
	global, err := BuildGlobalSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gsk, err := BuildGSketch(cfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	Populate(global, edges)
	Populate(gsk, edges)

	gARE := evalARE(t, global, exact, 1234)
	sARE := evalARE(t, gsk, exact, 1234)
	t.Logf("%s: Global ARE %.2f, gSketch ARE %.2f (%.2fx)", name, gARE, sARE, gARE/sARE)
	if sARE*margin >= gARE {
		t.Errorf("%s: gSketch ARE %.2f does not beat Global %.2f by margin %.2f", name, sARE, gARE, margin)
	}
}

func TestGSketchBeatsGlobalOnRMAT(t *testing.T) {
	cfg := graphgen.DefaultRMAT(12, 150_000, 42)
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	assertGSketchWins(t, "RMAT", edges, reservoir(edges, 0.2, 99), 16<<10, 1.5)
}

func TestGSketchBeatsGlobalOnDBLP(t *testing.T) {
	cfg := graphgen.DBLPConfig{Authors: 6_000, Papers: 60_000, Seed: 42}
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	assertGSketchWins(t, "DBLP", edges, reservoir(edges, 0.2, 99), 16<<10, 1.2)
}

func TestGSketchBeatsGlobalOnIPAttack(t *testing.T) {
	cfg := graphgen.DefaultIPAttack(2_000, 12_000, 300_000, 42)
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	assertGSketchWins(t, "IPAttack", edges, graphgen.FirstDay(edges), 16<<10, 1.1)
}

func TestPartitionedBandsAreProtected(t *testing.T) {
	// Craft a stream with two pure per-source frequency bands and verify
	// the partitioning actually separates them: light-band queries see
	// lower error under gSketch than under the global sketch.
	var edges []stream.Edge
	// Heavy band: 64 sources × 50 edges × frequency 40.
	for s := uint64(0); s < 64; s++ {
		for d := uint64(0); d < 50; d++ {
			for r := 0; r < 40; r++ {
				edges = append(edges, stream.Edge{Src: s, Dst: d, Weight: 1})
			}
		}
	}
	// Light band: 2000 sources × 4 edges × frequency 1.
	for s := uint64(1000); s < 3000; s++ {
		for d := uint64(0); d < 4; d++ {
			edges = append(edges, stream.Edge{Src: s, Dst: d, Weight: 1})
		}
	}
	// Deterministic interleave (stream order does not matter for CM).
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)

	sample := reservoir(edges, 0.3, 5)
	cfg := Config{TotalBytes: 8 << 10, Seed: 11}
	global, _ := BuildGlobalSketch(cfg)
	gsk, err := BuildGSketch(cfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	Populate(global, edges)
	Populate(gsk, edges)

	// Average relative error over light-band edges only.
	var gSum, sSum float64
	n := 0
	for s := uint64(1000); s < 1400; s++ {
		for d := uint64(0); d < 4; d++ {
			truth := float64(exact.EdgeFrequency(s, d))
			if truth == 0 {
				continue
			}
			gSum += float64(global.EstimateEdge(s, d))/truth - 1
			sSum += float64(gsk.EstimateEdge(s, d))/truth - 1
			n++
		}
	}
	gARE, sARE := gSum/float64(n), sSum/float64(n)
	t.Logf("light band: global %.2f vs gsketch %.2f", gARE, sARE)
	if sARE >= gARE {
		t.Errorf("light band not protected: gSketch %.2f ≥ global %.2f", sARE, gARE)
	}
}
