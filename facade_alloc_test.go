package gsketch_test

import (
	"math"
	"runtime"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
)

// buildAllocSketch returns a populated gSketch plus a query batch hitting
// it, shared by the conversion-free read-path guards below.
func buildAllocSketch(tb testing.TB) (*gsketch.GSketch, []gsketch.EdgeQuery) {
	tb.Helper()
	var sample []gsketch.Edge
	for i := 0; i < 256; i++ {
		sample = append(sample, gsketch.Edge{Src: uint64(i % 32), Dst: uint64(i), Weight: 1})
	}
	g, err := core.BuildGSketch(gsketch.Config{TotalBytes: 1 << 16, Seed: 7}, sample, nil)
	if err != nil {
		tb.Fatalf("BuildGSketch: %v", err)
	}
	gsketch.Populate(g, sample)
	qs := make([]gsketch.EdgeQuery, 128)
	for i := range qs {
		qs[i] = gsketch.EdgeQuery{Src: uint64(i % 32), Dst: uint64(i)}
	}
	return g, qs
}

// TestEstimateBatchNoConversionAlloc guards the unified query type: the
// facade's EstimateBatch must hand the caller's []EdgeQuery to the
// estimator as-is, allocating exactly as much as a direct
// Estimator.EstimateBatch call — no conversion slice on the hot path.
func TestEstimateBatchNoConversionAlloc(t *testing.T) {
	g, qs := buildAllocSketch(t)
	direct := testing.AllocsPerRun(50, func() {
		_ = g.EstimateBatch(qs)
	})
	facade := testing.AllocsPerRun(50, func() {
		_ = gsketch.EstimateBatch(g, qs)
	})
	if facade != direct {
		t.Fatalf("facade EstimateBatch allocates %.1f objects/op, direct path %.1f — conversion copy crept back in", facade, direct)
	}
}

// BenchmarkFacadeEstimateBatch tracks the facade batch read path; its
// allocs/op must match the estimator's own EstimateBatch (see the test
// above for the hard guard).
func BenchmarkFacadeEstimateBatch(b *testing.B) {
	g, qs := buildAllocSketch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gsketch.EstimateBatch(g, qs)
	}
}

// TestStatsAllocBudget: Stats on an adaptive engine reports workload drift
// without copying the recorder's sample or building a map for it — a
// /stats poll every 50 ms must not allocate the recorder's size each time
// (279 KB and 26 allocations per call when it did, with 4 096 queries
// recorded). The divergence it reports is the one the two source
// distributions, built as maps, give.
func TestStatsAllocBudget(t *testing.T) {
	const maxBytesPerCall = 16 << 10
	var sample, baseline []gsketch.Edge
	for i := 0; i < 1<<14; i++ {
		sample = append(sample, gsketch.Edge{Src: uint64(i % 2000), Dst: uint64(i), Weight: 1})
	}
	for i := 0; i < 1000; i++ {
		baseline = append(baseline, gsketch.Edge{Src: uint64(i % 500), Dst: 1, Weight: 1})
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 20, Seed: 1},
		gsketch.WithSample(sample), gsketch.WithWorkloadSample(baseline),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{}),
		gsketch.WithWorkloadRecorder(4096, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	qs := make([]gsketch.EdgeQuery, 1<<14)
	for i := range qs {
		qs[i] = gsketch.EdgeQuery{Src: uint64(i*7) % 3000, Dst: uint64(i)}
	}
	eng.QueryBatch(qs)
	if n := len(eng.Workload()); n != 4096 {
		t.Fatalf("recorder holds %d queries, want a full 4096", n)
	}

	eng.Stats() // the first call sizes what later ones reuse
	const calls = 50
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		eng.Stats()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes per Stats call", perCall)
	if perCall > maxBytesPerCall {
		t.Errorf("Stats allocated %d bytes per call, budget %d", perCall, maxBytesPerCall)
	}

	distribution := func(w []gsketch.Edge) map[uint64]float64 {
		m := make(map[uint64]float64)
		for _, q := range w {
			m[q.Src] += 1 / float64(len(w))
		}
		return m
	}
	base, live := distribution(baseline), distribution(eng.Workload())
	var sum float64
	for v, p := range base {
		sum += math.Abs(p - live[v])
	}
	for v, q := range live {
		if _, ok := base[v]; !ok {
			sum += q
		}
	}
	got := eng.Stats().Adapt.Drift.WorkloadDivergence
	if want := sum / 2; math.Abs(got-want) > 1e-12 || got == 0 {
		t.Errorf("workload divergence %v, the map-based value is %v", got, want)
	}
}
