package query

import (
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/stream"
)

func populatedCounter() *stream.ExactCounter {
	c := stream.NewExactCounter()
	for i := uint64(0); i < 200; i++ {
		c.Observe(stream.Edge{Src: i % 20, Dst: i, Weight: int64(i%7) + 1})
	}
	return c
}

func TestUniformEdgeQueries(t *testing.T) {
	c := populatedCounter()
	qs := UniformEdgeQueries(c, 1000, 5)
	if len(qs) != 1000 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if c.EdgeFrequency(q.Src, q.Dst) == 0 {
			t.Fatalf("query (%d,%d) not drawn from the stream", q.Src, q.Dst)
		}
	}
	// Determinism.
	qs2 := UniformEdgeQueries(c, 1000, 5)
	for i := range qs {
		if qs[i] != qs2[i] {
			t.Fatal("same seed produced different query sets")
		}
	}
	if UniformEdgeQueries(stream.NewExactCounter(), 10, 1) != nil {
		t.Error("empty counter should yield nil queries")
	}
}

func TestZipfEdgeQueriesSkew(t *testing.T) {
	c := populatedCounter()
	qs := ZipfEdgeQueries(c, 5000, 1.5, 7, 8)
	if len(qs) != 5000 {
		t.Fatalf("got %d queries", len(qs))
	}
	counts := make(map[EdgeQuery]int)
	for _, q := range qs {
		counts[q]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// 200 distinct edges, α = 1.5: top edge should own far more than the
	// uniform share (25).
	if max < 100 {
		t.Errorf("top query repeated %d times; Zipf skew too weak", max)
	}
}

func TestZipfSharedPermutation(t *testing.T) {
	c := populatedCounter()
	// Same permSeed: the workload sample is predictive of the query set
	// (both favor the same popular edges).
	workload := ZipfWorkloadSample(c, 3000, 1.5, 7, 100)
	queries := ZipfEdgeQueries(c, 3000, 1.5, 7, 200)

	wCount := make(map[EdgeQuery]int)
	for _, e := range workload {
		wCount[EdgeQuery{Src: e.Src, Dst: e.Dst}]++
	}
	qCount := make(map[EdgeQuery]int)
	for _, q := range queries {
		qCount[q]++
	}
	// Top workload edge should be heavily queried too.
	var top EdgeQuery
	max := 0
	for q, n := range wCount {
		if n > max {
			max = n
			top = q
		}
	}
	if qCount[top] < max/4 {
		t.Errorf("top workload edge (%d times) queried only %d times: permutation not shared", max, qCount[top])
	}
	// Different permSeed: correlation should collapse.
	queriesOther := ZipfEdgeQueries(c, 3000, 1.5, 9999, 200)
	oCount := make(map[EdgeQuery]int)
	for _, q := range queriesOther {
		oCount[q]++
	}
	if oCount[top] > qCount[top]/2 {
		t.Logf("warning: independent permutation still correlates (%d vs %d)", oCount[top], qCount[top])
	}
}

func TestBFSSubgraphQueries(t *testing.T) {
	c := stream.NewExactCounter()
	// A connected-ish graph: chain plus fan-outs.
	for i := uint64(0); i < 100; i++ {
		c.Observe(stream.Edge{Src: i, Dst: i + 1, Weight: 1})
		c.Observe(stream.Edge{Src: i, Dst: i + 50, Weight: 1})
	}
	qs := BFSSubgraphQueries(c, SubgraphConfig{Count: 50, EdgesPer: 10, Agg: Sum, Seed: 1})
	if len(qs) != 50 {
		t.Fatalf("got %d subgraphs, want 50", len(qs))
	}
	for _, q := range qs {
		if len(q.Edges) != 10 {
			t.Fatalf("subgraph has %d edges, want 10", len(q.Edges))
		}
		if q.Agg != Sum {
			t.Fatal("aggregate not propagated")
		}
		seen := make(map[EdgeQuery]bool)
		for _, e := range q.Edges {
			if c.EdgeFrequency(e.Src, e.Dst) == 0 {
				t.Fatalf("subgraph edge (%d,%d) not in graph", e.Src, e.Dst)
			}
			if seen[e] {
				t.Fatal("duplicate edge within subgraph")
			}
			seen[e] = true
		}
	}
}

func TestBFSSubgraphZipfSeeds(t *testing.T) {
	c := populatedCounter()
	qs := BFSSubgraphQueries(c, SubgraphConfig{Count: 30, EdgesPer: 5, Agg: Sum, Seed: 2, ZipfAlpha: 1.5})
	if len(qs) != 30 {
		t.Fatalf("got %d subgraphs", len(qs))
	}
}

func TestBFSSubgraphEmptyGraph(t *testing.T) {
	if qs := BFSSubgraphQueries(stream.NewExactCounter(), SubgraphConfig{Count: 5, EdgesPer: 3, Seed: 1}); qs != nil {
		t.Error("empty graph should yield nil")
	}
}

func TestSubgraphWorkloadSample(t *testing.T) {
	c := populatedCounter()
	cfg := SubgraphConfig{EdgesPer: 5, Agg: Sum, Seed: 2, ZipfAlpha: 1.5}
	sample := SubgraphWorkloadSample(c, 2003, cfg, 99)
	if len(sample) != 2003 {
		t.Fatalf("got %d edges, want 2003 (the last subgraph cut)", len(sample))
	}
	for _, e := range sample {
		if e.Weight != 1 || c.EdgeFrequency(e.Src, e.Dst) == 0 {
			t.Fatalf("sample edge %+v is not a unit-weight stream edge", e)
		}
	}
	if again := SubgraphWorkloadSample(c, 2003, cfg, 99); !slices.Equal(again, sample) {
		t.Error("same seeds drew a different sample")
	}

	// Drawn from cfg.Seed, the sample is the query set flattened: one
	// process. From another seed the draws differ.
	cfg.Count = 400
	var flat []stream.Edge
	for _, q := range BFSSubgraphQueries(c, cfg) {
		for _, e := range q.Edges {
			flat = append(flat, stream.Edge{Src: e.Src, Dst: e.Dst, Weight: 1})
		}
	}
	if !slices.Equal(SubgraphWorkloadSample(c, len(flat), cfg, cfg.Seed), flat) {
		t.Error("drawn from the query seed, the sample is not the flattened query set")
	}
	if slices.Equal(sample[:len(flat)/2], flat[:len(flat)/2]) {
		t.Error("an independent draw seed repeated the queries' draws")
	}

	// Same seed permutation: the most popular source agrees.
	top := func(edges []stream.Edge) uint64 {
		count := make(map[uint64]int)
		best := edges[0].Src
		for _, e := range edges {
			count[e.Src]++
			if count[e.Src] > count[best] {
				best = e.Src
			}
		}
		return best
	}
	if a, b := top(sample), top(flat); a != b {
		t.Errorf("most popular workload source %d, query source %d: permutations differ", a, b)
	}
}
