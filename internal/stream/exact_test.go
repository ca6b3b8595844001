package stream

import (
	"testing"
)

func TestExactCounter(t *testing.T) {
	c := NewExactCounter()
	c.Observe(Edge{Src: 1, Dst: 2, Weight: 3})
	c.Observe(Edge{Src: 1, Dst: 2, Weight: 2})
	c.Observe(Edge{Src: 1, Dst: 3}) // zero weight counts as 1
	c.Observe(Edge{Src: 4, Dst: 1, Weight: 7})

	if got := c.EdgeFrequency(1, 2); got != 5 {
		t.Errorf("f(1,2) = %d, want 5", got)
	}
	if got := c.EdgeFrequency(1, 3); got != 1 {
		t.Errorf("f(1,3) = %d, want 1", got)
	}
	if got := c.EdgeFrequency(9, 9); got != 0 {
		t.Errorf("f(9,9) = %d, want 0", got)
	}
	if got := c.VertexFrequency(1); got != 6 {
		t.Errorf("fv(1) = %d, want 6 (Eq. 2)", got)
	}
	if got := c.vertexD[1]; got != 2 {
		t.Errorf("d(1) = %d, want 2 (Eq. 3)", got)
	}
	if c.Total() != 13 || c.Arrivals() != 4 {
		t.Errorf("total=%d arrivals=%d", c.Total(), c.Arrivals())
	}
	if c.DistinctEdges() != 3 || c.DistinctSources() != 2 {
		t.Errorf("distinct=%d sources=%d", c.DistinctEdges(), c.DistinctSources())
	}
	edges := c.Edges()
	if len(edges) != 3 {
		t.Errorf("Edges() returned %d", len(edges))
	}
	var sum int64
	c.RangeEdges(func(s, d uint64, f int64) bool { sum += f; return true })
	if sum != 13 {
		t.Errorf("range sum = %d, want 13", sum)
	}
	// Early stop.
	n := 0
	c.RangeEdges(func(s, d uint64, f int64) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop ignored, visited %d", n)
	}
}

func TestVarianceStatsBands(t *testing.T) {
	// Two pure per-source frequency bands: local variance 0, global
	// variance positive, ratio 0-division-guarded.
	c := NewExactCounter()
	for d := uint64(0); d < 10; d++ {
		c.Observe(Edge{Src: 1, Dst: d, Weight: 100}) // heavy source
		c.Observe(Edge{Src: 2, Dst: d, Weight: 1})   // light source
	}
	st := ComputeVarianceStats(c)
	if st.LocalVariance != 0 {
		t.Errorf("local variance = %v, want 0 for pure bands", st.LocalVariance)
	}
	if st.GlobalVariance <= 0 {
		t.Errorf("global variance = %v, want > 0", st.GlobalVariance)
	}
	if st.Ratio != 0 {
		t.Errorf("ratio should be 0 when local variance is 0 (guard), got %v", st.Ratio)
	}
	if st.DistinctEdges != 20 || st.Sources != 2 {
		t.Errorf("distinct=%d sources=%d", st.DistinctEdges, st.Sources)
	}
}

func TestVarianceStatsMixedSource(t *testing.T) {
	// A source with within-variance: σ_V > 0 and ratio finite.
	c := NewExactCounter()
	c.Observe(Edge{Src: 1, Dst: 1, Weight: 10})
	c.Observe(Edge{Src: 1, Dst: 2, Weight: 20})
	c.Observe(Edge{Src: 2, Dst: 1, Weight: 100})
	c.Observe(Edge{Src: 2, Dst: 2, Weight: 200})
	st := ComputeVarianceStats(c)
	// Per-source population variances: src1 var(10,20)=25, src2 var(100,200)=2500; mean 1262.5.
	if st.LocalVariance != 1262.5 {
		t.Errorf("local variance = %v, want 1262.5", st.LocalVariance)
	}
	// Global variance over {10,20,100,200}: mean 82.5,
	// var = 50500/4 − 82.5² = 5818.75.
	if st.GlobalVariance != 5818.75 {
		t.Errorf("global variance = %v, want 5818.75", st.GlobalVariance)
	}
	want := 5818.75 / 1262.5
	if st.Ratio < want-1e-9 || st.Ratio > want+1e-9 {
		t.Errorf("ratio = %v, want %v", st.Ratio, want)
	}
}

func TestVarianceStatsEmpty(t *testing.T) {
	st := ComputeVarianceStats(NewExactCounter())
	if st.DistinctEdges != 0 || st.Ratio != 0 {
		t.Error("empty counter should yield zero stats")
	}
}
