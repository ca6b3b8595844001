package query

import (
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// answerTestSketch builds a populated gSketch with both routed and outlier
// traffic, plus the exact counter for ground truth.
func answerTestSketch(t *testing.T) (*core.GSketch, *stream.ExactCounter, []stream.Edge) {
	t.Helper()
	rng := hashutil.NewRNG(7)
	edges := make([]stream.Edge, 40_000)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 2000,
			Dst:    rng.Uint64() % 5000,
			Weight: int64(rng.Uint64()%3) + 1,
		}
	}
	g, err := core.BuildGSketch(core.Config{TotalWidth: 8192, Seed: 7}, edges[:5000], nil)
	if err != nil {
		t.Fatal(err)
	}
	core.Populate(g, edges)
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	return g, exact, edges
}

func TestAnswerEdgeQuery(t *testing.T) {
	g, _, edges := answerTestSketch(t)
	for _, e := range edges[:500] {
		q := EdgeQuery{Src: e.Src, Dst: e.Dst}
		resp := Answer(g, q)
		if want := float64(g.EstimateEdge(e.Src, e.Dst)); resp.Value != want {
			t.Fatalf("Answer(%v) = %v, want %v", q, resp.Value, want)
		}
		if len(resp.Results) != 1 {
			t.Fatalf("edge query produced %d results", len(resp.Results))
		}
		if want := g.ErrorBound(e.Src); resp.ErrorBound != want {
			t.Fatalf("edge bound %v, want %v", resp.ErrorBound, want)
		}
		if resp.Confidence != resp.Results[0].Confidence {
			t.Fatalf("edge confidence %v, want %v", resp.Confidence, resp.Results[0].Confidence)
		}
		if resp.StreamTotal != g.Count() {
			t.Fatalf("stream total %d, want %d", resp.StreamTotal, g.Count())
		}
	}
}

// TestAnswerSubgraphMatchesSequentialDecomposition proves the one-call
// batched decomposition returns exactly what N sequential EstimateEdge
// calls folded with Γ would.
func TestAnswerSubgraphMatchesSequentialDecomposition(t *testing.T) {
	g, _, edges := answerTestSketch(t)
	for _, agg := range []Aggregate{Sum, Min, Max, Average, Count} {
		q := SubgraphQuery{Agg: agg}
		for _, e := range edges[:10] {
			q.Edges = append(q.Edges, EdgeQuery{Src: e.Src, Dst: e.Dst})
		}
		vals := make([]float64, len(q.Edges))
		for i, e := range q.Edges {
			vals[i] = float64(g.EstimateEdge(e.Src, e.Dst))
		}
		want := agg.Apply(vals)
		if got := Answer(g, q).Value; got != want {
			t.Fatalf("%v: Answer = %v, sequential fold = %v", agg, got, want)
		}
	}
}

func TestAnswerNodeQuery(t *testing.T) {
	g, _, edges := answerTestSketch(t)
	src := edges[0].Src
	q := NodeQuery{Node: src, Out: []uint64{edges[0].Dst, edges[0].Dst + 1, 99_999}, Agg: Sum}
	resp := Answer(g, q)
	var want float64
	for _, d := range q.Out {
		want += float64(g.EstimateEdge(src, d))
	}
	if resp.Value != want {
		t.Fatalf("node SUM = %v, want %v", resp.Value, want)
	}
	if len(resp.Results) != len(q.Out) {
		t.Fatalf("node query produced %d results, want %d", len(resp.Results), len(q.Out))
	}
	// All constituents share the source vertex, hence the same partition.
	for _, r := range resp.Results[1:] {
		if r.Partition != resp.Results[0].Partition || r.Outlier != resp.Results[0].Outlier {
			t.Fatalf("node query split across partitions: %+v vs %+v", r, resp.Results[0])
		}
	}
	// Single-partition SUM bound: per-edge bounds are equal, so the
	// combined bound is n times the partition bound.
	if want := float64(len(q.Out)) * resp.Results[0].ErrorBound; resp.ErrorBound != want {
		t.Fatalf("node SUM bound %v, want %v", resp.ErrorBound, want)
	}
}

func TestAnswerBatchMatchesAnswer(t *testing.T) {
	g, _, edges := answerTestSketch(t)
	qs := []Query{
		EdgeQuery{Src: edges[0].Src, Dst: edges[0].Dst},
		SubgraphQuery{
			Edges: []EdgeQuery{
				{Src: edges[1].Src, Dst: edges[1].Dst},
				{Src: edges[2].Src, Dst: edges[2].Dst},
			},
			Agg: Sum,
		},
		NodeQuery{Node: edges[3].Src, Out: []uint64{edges[3].Dst, 12345}, Agg: Max},
		EdgeQuery{Src: 900_000, Dst: 1}, // outlier traffic
	}
	batch := AnswerBatch(g, qs)
	if len(batch) != len(qs) {
		t.Fatalf("AnswerBatch returned %d responses for %d queries", len(batch), len(qs))
	}
	for i, q := range qs {
		single := Answer(g, q)
		if batch[i].Value != single.Value ||
			batch[i].ErrorBound != single.ErrorBound ||
			batch[i].Confidence != single.Confidence ||
			len(batch[i].Results) != len(single.Results) {
			t.Fatalf("query %d: AnswerBatch %+v vs Answer %+v", i, batch[i], single)
		}
	}
	if AnswerBatch(g, nil) != nil {
		t.Fatal("empty AnswerBatch should return nil")
	}
}

func TestCombineBoundsPerAggregate(t *testing.T) {
	res := []core.Result{
		{Estimate: 10, ErrorBound: 4, Confidence: 0.99},
		{Estimate: 20, ErrorBound: 6, Confidence: 0.99},
	}
	cases := []struct {
		agg  Aggregate
		want float64
	}{
		{Sum, 10}, {Average, 5}, {Min, 6}, {Max, 6}, {Count, 0},
	}
	for _, c := range cases {
		if got := combineBounds(c.agg, res); got != c.want {
			t.Errorf("combineBounds(%v) = %v, want %v", c.agg, got, c.want)
		}
	}
	// Union bound: 1 - (0.01 + 0.01).
	if got := unionConfidence(res); math.Abs(got-0.98) > 1e-12 {
		t.Errorf("unionConfidence = %v, want 0.98", got)
	}
	// Many low-confidence constituents floor at zero.
	weak := make([]core.Result, 10)
	for i := range weak {
		weak[i] = core.Result{Confidence: 0.5}
	}
	if got := unionConfidence(weak); got != 0 {
		t.Errorf("floored unionConfidence = %v, want 0", got)
	}
}

func TestResponseEmptyQuery(t *testing.T) {
	g, _, _ := answerTestSketch(t)
	resp := Answer(g, SubgraphQuery{Agg: Sum})
	if resp.Value != 0 || resp.ErrorBound != 0 || len(resp.Results) != 0 {
		t.Fatalf("empty subgraph Answer = %+v", resp)
	}
}

// TestEvaluateGuardsInfiniteRelativeError pins the metrics satellite: a
// zero-truth query answered nonzero must land in Skipped, not poison the
// Eq. 13 average nor count toward the Eq. 14 effective total.
func TestEvaluateGuardsInfiniteRelativeError(t *testing.T) {
	c := stream.NewExactCounter()
	c.Observe(stream.Edge{Src: 1, Dst: 2, Weight: 10})
	// overEstimator reports 5 for every edge, including zero-truth ones.
	est := constantEstimator{5}

	queries := []EdgeQuery{{Src: 1, Dst: 2}, {Src: 8, Dst: 9}} // (8,9) has zero truth
	acc := EvaluateEdgeQueries(est, c, queries, DefaultG0)
	if acc.Total != 1 || acc.Skipped != 1 {
		t.Fatalf("total=%d skipped=%d, want 1/1", acc.Total, acc.Skipped)
	}
	if math.IsInf(acc.AvgRelErr, 0) || math.IsNaN(acc.AvgRelErr) {
		t.Fatalf("ARE poisoned: %v", acc.AvgRelErr)
	}
	if acc.AvgRelErr != -0.5 { // 5/10 - 1
		t.Fatalf("ARE = %v, want -0.5", acc.AvgRelErr)
	}
	if acc.Effective != 1 {
		t.Fatalf("effective = %d, want 1 (zero-truth query must not count)", acc.Effective)
	}

	// Subgraph flavour: MIN over a bag whose true minimum is zero but whose
	// estimate is positive → truth 0, skipped; the aggregates stay finite.
	sub := []SubgraphQuery{
		{Edges: []EdgeQuery{{Src: 1, Dst: 2}, {Src: 8, Dst: 9}}, Agg: Min},
		{Edges: []EdgeQuery{{Src: 1, Dst: 2}}, Agg: Sum},
	}
	sacc := EvaluateSubgraphQueries(est, c, sub, DefaultG0)
	if sacc.Total != 1 || sacc.Skipped != 1 {
		t.Fatalf("subgraph total=%d skipped=%d, want 1/1", sacc.Total, sacc.Skipped)
	}
	if math.IsInf(sacc.AvgRelErr, 0) || math.IsNaN(sacc.AvgRelErr) {
		t.Fatalf("subgraph ARE poisoned: %v", sacc.AvgRelErr)
	}
}

// constantEstimator answers every query with a fixed value.
type constantEstimator struct{ v int64 }

func (e constantEstimator) UpdateBatch([]stream.Edge) {}
func (e constantEstimator) Count() int64              { return 0 }
func (e constantEstimator) MemoryBytes() int          { return 0 }

func (e constantEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	out := make([]core.Result, len(qs))
	for i := range out {
		out[i] = core.Result{Estimate: e.v, Partition: core.NoPartition}
	}
	return out
}

var _ core.Estimator = constantEstimator{}
