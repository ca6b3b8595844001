package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

func rmatEdges(t testing.TB, scale, n int, seed uint64) []stream.Edge {
	t.Helper()
	edges, err := graphgen.DefaultRMAT(scale, n, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// hashedIDs spreads vertex ids over all 64 bits, as interned labels are,
// and maps one source to id 0 (the router's out-of-line key).
func hashedIDs(edges []stream.Edge) []stream.Edge {
	out := make([]stream.Edge, len(edges))
	zero := edges[len(edges)/2].Src
	for i, e := range edges {
		out[i] = stream.Edge{Src: hashutil.Mix64(e.Src + 1), Dst: hashutil.Mix64(e.Dst), Weight: int64(i % 3), Time: e.Time}
		if e.Src == zero {
			out[i].Src = 0
		}
	}
	return out
}

func snapshotDigest(t testing.TB, g *GSketch) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestBootstrapMatchesParentConstruction pins what a build produces —
// leaves, widths, seeds, and the router's slot order, all of which WriteTo
// serializes — to digests computed at the last commit that built through a
// (src, dst) hash set, a reflected sort and an assignment map. The builds
// cover both scenarios, ids from 0 to 2⁶⁴, samples from one edge to 1 Mi,
// and every redistribution policy. A deliberate change to the partitioning algorithm
// or the snapshot format recomputes them; a change to how the same
// partitioning is computed must not.
func TestBootstrapMatchesParentConstruction(t *testing.T) {
	small := rmatEdges(t, 14, 8192, 3)
	for _, tc := range []struct {
		name     string
		cfg      Config
		sample   func() []stream.Edge
		workload func() []stream.Edge
		want     string
	}{
		{"one-edge", Config{TotalBytes: 1 << 16, Seed: 5},
			func() []stream.Edge { return small[:1] }, nil,
			"64517c6f9f2f88f22e4c9e0769bc195cb47cb42a511966ce60eafc4af5914833"},
		{"seven-edges", Config{TotalBytes: 1 << 16, Seed: 5},
			func() []stream.Edge { return small[:7] }, nil,
			"2882dd3b64cc0a6d86b0d7dfc629a0e6d43877a59cf37e83c7ea9e6e41d29628"},
		{"rmat-8Ki", Config{TotalBytes: 1 << 20, Seed: 1},
			func() []stream.Edge { return small }, nil,
			"8f873f7435bbd5c8b88c3a62c90c72177c97127bfaa8940fcb12b6dc943682e5"},
		{"rmat-8Ki-workload", Config{TotalBytes: 1 << 20, Seed: 1},
			func() []stream.Edge { return small }, func() []stream.Edge { return rmatEdges(t, 14, 2000, 9) },
			"62e59c9144051a906f04a91881a6f87fa012f1068c33b5a8ed67574e6a3c2c91"},
		{"hashed-ids-even", Config{TotalBytes: 1 << 18, Seed: 2, Redistribute: RedistributeEven},
			func() []stream.Edge { return hashedIDs(small) }, nil,
			"3347efe0cc148312179d36b809798395d329a053e61147c495b2ab714f497e57"},
		{"hashed-ids-workload-none", Config{TotalBytes: 1 << 18, Seed: 2, Redistribute: RedistributeNone, MaxPartitions: 40},
			func() []stream.Edge { return hashedIDs(small) }, func() []stream.Edge { return hashedIDs(small[:1000]) },
			"d5eaac53171e095ca5fe36c4b34ea3c6f7b17fb6fd9cfb6f4551eeb3a07179e9"},
		{"rmat-64Ki", Config{TotalBytes: 1 << 20, Seed: 1},
			func() []stream.Edge { return rmatEdges(t, 14, 1<<16, 7) }, nil,
			"36f0c8c38b1f3b944ec31c87bbae8ae6488d4f20f14da9c04583bf3c6ab758df"},
		{"rmat-1Mi", Config{TotalBytes: 4 << 20, Seed: 1},
			func() []stream.Edge { return rmatEdges(t, 18, 1<<20, 4) }, nil,
			"16b2b69f5d4ad31311d72082099a08480146fe48d129c7369d1e2ef4e1705fe3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "rmat-1Mi" {
				t.Skip("1 Mi-edge sample")
			}
			var workload []stream.Edge
			if tc.workload != nil {
				workload = tc.workload()
			}
			g, err := BuildGSketch(tc.cfg, tc.sample(), workload)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotDigest(t, g); got != tc.want {
				t.Errorf("snapshot digest %s, want %s (%d partitions, %d routed vertices)",
					got, tc.want, g.NumPartitions(), g.router.Len())
			}
		})
	}
}

// TestBootstrapRouterMatchesMapFill holds buildRouter over the tree's
// parallel slices to the fill it replaced, kept here as the reference:
// collect the keys of an assignment map, sort.Slice them, insert in that
// order. Slot arrays, not just lookups, must agree — slot order is what a
// snapshot writes.
func TestBootstrapRouterMatchesMapFill(t *testing.T) {
	for name, sample := range map[string][]stream.Edge{
		"rmat":       rmatEdges(t, 14, 8192, 3),
		"hashed ids": hashedIDs(rmatEdges(t, 12, 20000, 8)),
		"one vertex": {{Src: 0, Dst: 1}},
	} {
		stats := vstats.FromSample(sample)
		p, err := BuildPartitioning(stats, defaultParams(1<<15))
		if err != nil {
			t.Fatal(err)
		}
		assign := make(map[uint64]int32, len(p.Vertices))
		for i, v := range p.Vertices {
			assign[v] = p.LeafOf[i]
		}
		if len(assign) != stats.Len() {
			t.Fatalf("%s: assignment covers %d vertices, sample has %d", name, len(assign), stats.Len())
		}
		keys := make([]uint64, 0, len(assign))
		for k := range assign {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		want := NewRouter(len(assign))
		for _, k := range keys {
			want.Insert(k, assign[k])
		}
		got := buildRouter(p.Vertices, p.LeafOf)
		if got.n != want.n || got.hasZero != want.hasZero || got.zeroVal != want.zeroVal || got.mask != want.mask ||
			!slices.Equal(got.keys, want.keys) || !slices.Equal(got.vals, want.vals) {
			t.Errorf("%s: router slot arrays differ from the map-ordered fill", name)
		}
	}
}

// budgetSamples are the 1 Mi-edge scale-20 R-MAT samples the allocation
// budgets below are measured on: "bursty", the default generator, and
// "runfree", the same graph without bursts, in which almost no edge repeats
// the one before it. The builder keeps one destination per run of equal
// consecutive edges, so runs are what it saves on; on the run-free sample
// it must cost what the per-edge builder cost.
func budgetSamples(t *testing.T) map[string][]stream.Edge {
	runfree := graphgen.DefaultRMAT(20, 1<<20, 7)
	runfree.BurstFraction = 0
	quiet, err := runfree.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]stream.Edge{"bursty": rmatEdges(t, 20, 1<<20, 7), "runfree": quiet}
}

// TestBootstrapAllocBudget bounds what one build allocates, all in, per
// sample edge — so that a (src, dst) hash set, or any other container that
// grows with the sample, cannot come back unnoticed. Measured on the bursty
// sample (about 3 950 partitions): 0.00005 allocations per edge, against
// 0.0048 for the map-based construction it replaced, which took 95.6 bytes
// per edge; the builder that kept a destination per edge took 40.7 bytes,
// the one that keeps a destination per run 33.6 (the sample's 1 Mi edges
// form 122 680 runs). The bounds sit midway. The run-free sample (1 Mi runs,
// 534 166 sources against 109 279, 4 096 partitions) is held to what
// the per-edge builder took on it: 212.4 bytes per edge.
func TestBootstrapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1 Mi-edge sample")
	}
	if raceEnabled {
		t.Skip("the race detector allocates beside the code it instruments")
	}
	const maxAllocsPerEdge = 0.0024
	budget := map[string]float64{"bursty": 37.2, "runfree": 212.5}
	for name, sample := range budgetSamples(t) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := BuildGSketch(Config{TotalBytes: 4 << 20, Seed: 1}, sample, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		edges := float64(len(sample))
		bytesPerEdge := float64(after.TotalAlloc-before.TotalAlloc) / edges
		allocsPerEdge := float64(after.Mallocs-before.Mallocs) / edges
		t.Logf("%s, %d partitions: %.1f bytes and %.5f allocations per sample edge", name, g.NumPartitions(), bytesPerEdge, allocsPerEdge)
		if bytesPerEdge > budget[name] {
			t.Errorf("%s: build allocated %.1f bytes per sample edge, budget %.1f", name, bytesPerEdge, budget[name])
		}
		if allocsPerEdge > maxAllocsPerEdge {
			t.Errorf("%s: build made %.5f allocations per sample edge, budget %.5f", name, allocsPerEdge, maxAllocsPerEdge)
		}
	}
}

// TestFileBootstrapAllocBudget bounds what a build from a sample file
// allocates per sample edge, all in — so that the sample cannot come back
// into memory behind the file source unnoticed. Measured on the bursty
// sample written as a binary file: 72.7 bytes per edge when the file is read
// into a []Edge and built with BuildGSketch, as servers did before the file
// source; 40.9 through vstats.FromFile with a destination kept per edge,
// 33.9 with one per run. The bound sits midway. The run-free sample is held
// to what the per-edge builder took on it: 212.6 bytes per edge.
func TestFileBootstrapAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("1 Mi-edge sample")
	}
	if raceEnabled {
		t.Skip("the race detector allocates beside the code it instruments")
	}
	budget := map[string]float64{"bursty": 37.4, "runfree": 212.7}
	for name, sample := range budgetSamples(t) {
		path := filepath.Join(t.TempDir(), "sample.bin")
		writeBinaryFile(t, path, sample)
		cfg := Config{TotalBytes: 4 << 20, Seed: 1}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats, err := vstats.FromFile(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		g, err := BuildGSketchFromSampleStats(cfg, stats, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytesPerEdge := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(sample))
		t.Logf("%s, %d partitions: %.1f bytes per sample edge", name, g.NumPartitions(), bytesPerEdge)
		if bytesPerEdge > budget[name] {
			t.Errorf("%s: file build allocated %.1f bytes per sample edge, budget %.1f", name, bytesPerEdge, budget[name])
		}
	}
}

func writeBinaryFile(t testing.TB, path string, edges []stream.Edge) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.WriteBinaryEdges(f, edges); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
