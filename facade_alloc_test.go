package gsketch_test

import (
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
