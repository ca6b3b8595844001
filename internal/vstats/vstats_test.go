package vstats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func sample() []stream.Edge {
	return []stream.Edge{
		{Src: 1, Dst: 10, Weight: 5},
		{Src: 1, Dst: 11, Weight: 5},
		{Src: 1, Dst: 10, Weight: 5}, // duplicate edge: degree counted once
		{Src: 2, Dst: 10},            // zero weight counts as 1
		{Src: 3, Dst: 20, Weight: 2},
		{Src: 3, Dst: 21, Weight: 2},
		{Src: 3, Dst: 22, Weight: 2},
	}
}

func TestFromSample(t *testing.T) {
	s := FromSample(sample())
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	v1, ok := s.Get(1)
	if !ok || v1.F != 15 || v1.D != 2 {
		t.Errorf("vertex 1 = %+v, want F=15 D=2", v1)
	}
	v2, _ := s.Get(2)
	if v2.F != 1 || v2.D != 1 {
		t.Errorf("vertex 2 = %+v, want F=1 D=1", v2)
	}
	v3, _ := s.Get(3)
	if v3.F != 6 || v3.D != 3 {
		t.Errorf("vertex 3 = %+v, want F=6 D=3", v3)
	}
	if s.TotalF() != 22 {
		t.Errorf("totalF = %v, want 22", s.TotalF())
	}
	if _, ok := s.Get(99); ok {
		t.Error("unknown vertex found")
	}
	if v1.AvgEdgeFreq() != 7.5 {
		t.Errorf("avg edge freq = %v, want 7.5", v1.AvgEdgeFreq())
	}
	if s.HasWorkload() {
		t.Error("workload flagged before ApplyWorkload")
	}
}

func TestSortedByAvgFreq(t *testing.T) {
	s := FromSample(sample())
	sorted := s.Sorted(ByAvgFreq)
	// Keys: v1 = 7.5, v2 = 1, v3 = 2 → order 2, 3, 1.
	want := []uint64{2, 3, 1}
	for i, v := range sorted {
		if v.ID != want[i] {
			t.Fatalf("position %d: id %d, want %d", i, v.ID, want[i])
		}
	}
}

func TestApplyWorkloadLaplace(t *testing.T) {
	s := FromSample(sample())
	// Workload hits vertex 1 twice, vertex 3 once, vertex 7 (not in data
	// sample: ignored) once.
	workload := []stream.Edge{
		{Src: 1, Dst: 10}, {Src: 1, Dst: 11}, {Src: 3, Dst: 20}, {Src: 7, Dst: 1},
	}
	s.ApplyWorkload(workload)
	if !s.HasWorkload() {
		t.Error("workload not flagged")
	}
	denom := 4.0 + 3.0 // |W| + |V|
	v1, _ := s.Get(1)
	v2, _ := s.Get(2)
	v3, _ := s.Get(3)
	if math.Abs(v1.W-3/denom) > 1e-12 {
		t.Errorf("w(1) = %v, want %v", v1.W, 3/denom)
	}
	if math.Abs(v2.W-1/denom) > 1e-12 {
		t.Errorf("w(2) = %v, want %v (Laplace smoothing)", v2.W, 1/denom)
	}
	if math.Abs(v3.W-2/denom) > 1e-12 {
		t.Errorf("w(3) = %v, want %v", v3.W, 2/denom)
	}
	if v2.W <= 0 {
		t.Error("smoothed weight must stay positive")
	}
}

func TestSortedByFreqPerWeight(t *testing.T) {
	s := FromSample(sample())
	s.ApplyWorkload([]stream.Edge{{Src: 2, Dst: 1}, {Src: 2, Dst: 1}, {Src: 2, Dst: 1}})
	// Keys f̃v/w̃: heavily queried vertices sort first for equal f.
	sorted := s.Sorted(ByFreqPerWeight)
	// v2: F=1, W=(3+1)/6 → key 1.5; v3: F=6, W=1/6 → 36; v1: F=15, W=1/6 → 90.
	want := []uint64{2, 3, 1}
	for i, v := range sorted {
		if v.ID != want[i] {
			t.Fatalf("position %d: id %d, want %d", i, v.ID, want[i])
		}
	}
}

func TestSortedDeterministicTies(t *testing.T) {
	// All vertices identical stats → sort must fall back to ID order.
	var edges []stream.Edge
	for i := 10; i > 0; i-- {
		edges = append(edges, stream.Edge{Src: uint64(i), Dst: 100, Weight: 1})
	}
	s := FromSample(edges)
	sorted := s.Sorted(ByAvgFreq)
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID }) {
		t.Error("tied keys not ordered by ID")
	}
}

func TestStatsInvariantsProperty(t *testing.T) {
	// For any sample: Σ per-vertex F equals total weight, D ≥ 1, F ≥ D
	// (weights ≥ 1), and Sorted is a permutation.
	f := func(srcs, dsts []uint8) bool {
		n := len(srcs)
		if len(dsts) < n {
			n = len(dsts)
		}
		if n == 0 {
			return true
		}
		edges := make([]stream.Edge, n)
		for i := 0; i < n; i++ {
			edges[i] = stream.Edge{Src: uint64(srcs[i] % 16), Dst: uint64(dsts[i] % 16), Weight: 1}
		}
		s := FromSample(edges)
		var sumF float64
		ids := make(map[uint64]bool)
		for _, v := range s.Sorted(ByAvgFreq) {
			sumF += v.F
			if v.D < 1 || v.F < v.D {
				return false
			}
			if ids[v.ID] {
				return false // duplicate in sort output
			}
			ids[v.ID] = true
		}
		return sumF == float64(n) && len(ids) == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEmptyWorkloadNoop(t *testing.T) {
	s := FromSample(sample())
	s.ApplyWorkload(nil)
	v1, _ := s.Get(1)
	// Laplace smoothing over zero queries: every vertex gets 1/|V|.
	if math.Abs(v1.W-1.0/3.0) > 1e-12 {
		t.Errorf("w after empty workload = %v, want 1/3", v1.W)
	}
}

// refStats is the construction this package used before the sequential
// passes — a map from vertex id to position, a set of (src, dst) pairs for
// d̃, a map of workload counts — kept as the reference the flat-slice
// FromSample, ApplyWorkload and Sorted are held to, field by field.
type refStats struct {
	vertices []VertexStat
	index    map[uint64]int
	totalF   float64
}

func refFromSample(sample []stream.Edge) *refStats {
	s := &refStats{index: make(map[uint64]int)}
	seen := make(map[[2]uint64]struct{}, len(sample))
	for _, e := range sample {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		i, ok := s.index[e.Src]
		if !ok {
			i = len(s.vertices)
			s.index[e.Src] = i
			s.vertices = append(s.vertices, VertexStat{ID: e.Src, W: 1})
		}
		s.vertices[i].F += float64(w)
		s.totalF += float64(w)
		k := [2]uint64{e.Src, e.Dst}
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			s.vertices[i].D++
		}
	}
	return s
}

func (s *refStats) applyWorkload(workload []stream.Edge) {
	counts := make(map[uint64]int64)
	var total int64
	for _, q := range workload {
		if _, ok := s.index[q.Src]; ok {
			counts[q.Src]++
		}
		total++
	}
	denom := float64(total) + float64(len(s.vertices))
	if denom == 0 {
		return
	}
	for i := range s.vertices {
		s.vertices[i].W = (float64(counts[s.vertices[i].ID]) + 1) / denom
	}
}

func (s *refStats) sorted(order SortOrder) []VertexStat {
	out := make([]VertexStat, len(s.vertices))
	copy(out, s.vertices)
	key := func(v VertexStat) float64 { return v.F / v.D }
	if order == ByFreqPerWeight {
		key = func(v VertexStat) float64 { return v.F / v.W }
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := key(out[i]), key(out[j])
		if ki != kj {
			return ki < kj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func rmatSample(t testing.TB, scale, n int, seed uint64) []stream.Edge {
	t.Helper()
	edges, err := graphgen.DefaultRMAT(scale, n, seed).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

func zipfSample(vertices, n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	z := graphgen.NewZipf(vertices, 1.2, rng)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{Src: uint64(z.Draw()), Dst: rng.Uint64() % 64, Weight: int64(rng.Uint64() % 3)}
	}
	return edges
}

// equivalenceSamples are the shapes the new construction is compared to the
// reference on. large adds the 1 Mi-edge samples.
func equivalenceSamples(t testing.TB, large bool) map[string][]stream.Edge {
	rng := hashutil.NewRNG(5)
	hub := make([]stream.Edge, 4096) // one source owns three quarters of it
	for i := range hub {
		hub[i] = stream.Edge{Src: 1 + rng.Uint64()%40, Dst: rng.Uint64() % 300, Weight: int64(rng.Uint64() % 4)}
		if i%4 != 0 {
			hub[i].Src = 77
		}
	}
	ties := make([]stream.Edge, 0, 600) // every vertex F=3, D=3: all keys tie
	for v := 200; v > 0; v-- {
		for d := 0; d < 3; d++ {
			ties = append(ties, stream.Edge{Src: uint64(v) * 0x9e3779b97f4a7c15, Dst: uint64(d), Weight: 1})
		}
	}
	dup := make([]stream.Edge, 500)
	for i := range dup {
		dup[i] = stream.Edge{Src: 9, Dst: 9, Weight: 2}
	}
	m := map[string][]stream.Edge{
		"empty":       nil,
		"rmat-1":      rmatSample(t, 10, 1, 1),
		"rmat-7":      rmatSample(t, 10, 7, 2),
		"rmat-8Ki":    rmatSample(t, 14, 8192, 3),
		"zipf-1":      zipfSample(512, 1, 1),
		"zipf-7":      zipfSample(512, 7, 2),
		"zipf-8Ki":    zipfSample(4096, 8192, 3),
		"source-zero": {{Src: 0, Dst: 5, Weight: 3}, {Src: 4, Dst: 0}, {Src: 0, Dst: 5}, {Src: 0, Dst: 6, Weight: 1}},
		"duplicates":  dup,
		"zero-weight": {{Src: 1, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 2}, {Src: 1, Dst: 2}},
		"hub":         hub,
		"ties":        ties,
	}
	if large {
		m["rmat-1Mi"] = rmatSample(t, 18, 1<<20, 4)
		m["zipf-1Mi"] = zipfSample(1<<17, 1<<20, 4)
	}
	return m
}

func equalVertices(t *testing.T, what string, got, want []VertexStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d vertices, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] { // ID, F, D and W, exactly
			t.Fatalf("%s: position %d is %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// checkAgainstReference holds one Stats to the reference construction of
// the same sample: vertex order, every field, TotalF, Get, and Sorted in
// both orders before and after a workload is applied.
func checkAgainstReference(t *testing.T, s *Stats, sample []stream.Edge) {
	t.Helper()
	ref := refFromSample(sample)
	equalVertices(t, "FromSample", s.vertices, ref.vertices)
	if s.TotalF() != ref.totalF {
		t.Fatalf("TotalF %v, reference %v", s.TotalF(), ref.totalF)
	}
	if s.Len() != len(ref.vertices) {
		t.Fatalf("Len %d, reference %d", s.Len(), len(ref.vertices))
	}
	for i, v := range ref.vertices {
		if got, ok := s.Get(v.ID); !ok || got != v {
			t.Fatalf("Get(%d) = %+v, %v; reference vertex %d is %+v", v.ID, got, ok, i, v)
		}
	}
	const absent = 0xdeadbeefdeadbeef
	if _, in := ref.index[absent]; !in {
		if _, ok := s.Get(absent); ok {
			t.Fatal("Get found a vertex that is not in the sample")
		}
	}
	equalVertices(t, "Sorted(ByAvgFreq)", s.Sorted(ByAvgFreq), ref.sorted(ByAvgFreq))

	// The workload: every third sample edge, plus sources the sample lacks.
	var workload []stream.Edge
	for i := 0; i < len(sample); i += 3 {
		workload = append(workload, sample[i], stream.Edge{Src: sample[i].Src ^ 0x5555, Dst: 1})
	}
	s.ApplyWorkload(workload)
	ref.applyWorkload(workload)
	equalVertices(t, "ApplyWorkload", s.vertices, ref.vertices)
	equalVertices(t, "Sorted(ByFreqPerWeight)", s.Sorted(ByFreqPerWeight), ref.sorted(ByFreqPerWeight))
	equalVertices(t, "Sorted(ByAvgFreq) after workload", s.Sorted(ByAvgFreq), ref.sorted(ByAvgFreq))
}

// TestFromSampleMatchesReference is the equivalence the sequential-pass
// construction rests on, over the sample shapes that break such code: one
// edge, a source id of 0, nothing but duplicates, zero weights, one hub
// owning most of the sample, sort keys that all tie.
func TestFromSampleMatchesReference(t *testing.T) {
	for name, sample := range equivalenceSamples(t, !testing.Short()) {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, FromSample(sample), sample)
		})
	}
}
