package gsketch_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	gsketch "github.com/graphstream/gsketch"
)

// synthetic builds a small two-band stream: hub vertices with repeated
// heavy edges plus a tail of one-off edges.
func synthetic(n int) []gsketch.Edge {
	var edges []gsketch.Edge
	for i := 0; i < n; i++ {
		switch {
		case i%4 != 0:
			// Heavy band: few hub pairs repeated.
			hub := uint64(i % 8)
			edges = append(edges, gsketch.Edge{Src: hub, Dst: hub + 100, Weight: 1, Time: int64(i)})
		default:
			// Light band: fresh pair each time.
			edges = append(edges, gsketch.Edge{Src: uint64(1000 + i), Dst: uint64(2000 + i), Weight: 1, Time: int64(i)})
		}
	}
	return edges
}

// openPopulated opens an engine over a sample of edges and ingests all of
// them.
func openPopulated(t *testing.T, cfg gsketch.Config, sample, edges []gsketch.Edge) *gsketch.Engine {
	t.Helper()
	eng, err := gsketch.Open(cfg, gsketch.WithSample(sample))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestPublicAPIEndToEnd(t *testing.T) {
	edges := synthetic(20000)

	res := gsketch.NewReservoir(2000, 1)
	for _, e := range edges {
		res.Observe(e)
	}
	eng := openPopulated(t, gsketch.Config{TotalBytes: 64 << 10, Seed: 42}, res.Sample(), edges)

	// Hub pair (1, 101): i%8 == 1 implies i%4 != 0, so it recurs
	// n/8 = 2500 times.
	est := eng.Query(1, 101).Estimate
	if est < 2500 {
		t.Errorf("hub estimate = %d, want ≥ 2500", est)
	}

	// Aggregate subgraph query over three hub pairs.
	q := gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}, {Src: 3, Dst: 103}},
		Agg:   gsketch.Sum,
	}
	if got := eng.Answer(q).Value; got < 7000 {
		t.Errorf("subgraph SUM = %v, want ≥ 7000", got)
	}

	// Serialization round-trip through the engine.
	var buf bytes.Buffer
	if _, err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(&buf))
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if loaded.Query(1, 101).Estimate != est {
		t.Error("loaded sketch disagrees")
	}
}

func TestPublicGlobalBaseline(t *testing.T) {
	edges := synthetic(5000)
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 32 << 10, Seed: 1}, gsketch.WithGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if n := eng.Estimator().Count(); n != int64(len(edges)) {
		t.Errorf("count = %d", n)
	}
}

func TestPublicConcurrent(t *testing.T) {
	edges := synthetic(5000)
	eng := openPopulated(t, gsketch.Config{TotalBytes: 32 << 10, Seed: 1}, edges[:500], nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for lo := 0; lo < len(edges); lo += 512 {
			if err := eng.Ingest(context.Background(), edges[lo:min(lo+512, len(edges))]...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 100; i++ {
		_ = eng.Query(1, 101)
	}
	<-done
	if n := eng.Estimator().Count(); n != int64(len(edges)) {
		t.Errorf("count = %d", n)
	}
}

func TestPublicBatchedQueryAPI(t *testing.T) {
	edges := synthetic(20000)
	g := openPopulated(t, gsketch.Config{TotalBytes: 64 << 10, Seed: 5}, edges[:2000], edges).Estimator()
	one := func(s, d uint64) int64 { return g.EstimateBatch([]gsketch.EdgeQuery{{Src: s, Dst: d}})[0].Estimate }

	// EstimateBatch matches one-query batches and carries guarantees.
	qs := []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}, {Src: 987654, Dst: 1}}
	res := gsketch.EstimateBatch(g, qs)
	if len(res) != len(qs) {
		t.Fatalf("EstimateBatch returned %d results", len(res))
	}
	for i, q := range qs {
		if res[i].Estimate != one(q.Src, q.Dst) {
			t.Fatalf("query %d: batch %d vs one-query %d", i, res[i].Estimate, one(q.Src, q.Dst))
		}
		if res[i].Confidence <= 0 || res[i].Confidence >= 1 {
			t.Fatalf("query %d: confidence %v", i, res[i].Confidence)
		}
		if res[i].StreamTotal != g.Count() {
			t.Fatalf("query %d: stream total %d, want %d", i, res[i].StreamTotal, g.Count())
		}
	}

	// Answer resolves each query kind through one batched pass.
	edge := gsketch.Answer(g, gsketch.EdgeQuery{Src: 1, Dst: 101})
	if edge.Value != float64(one(1, 101)) {
		t.Fatalf("Answer(edge) = %v", edge.Value)
	}
	sub := gsketch.Answer(g, gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 101}, {Src: 2, Dst: 102}},
		Agg:   gsketch.Sum,
	})
	wantSum := float64(one(1, 101) + one(2, 102))
	if sub.Value != wantSum {
		t.Fatalf("Answer(subgraph SUM) = %v, want %v", sub.Value, wantSum)
	}
	if sub.ErrorBound <= 0 {
		t.Fatalf("subgraph bound %v", sub.ErrorBound)
	}
	node := gsketch.Answer(g, gsketch.NodeQuery{Node: 1, Out: []uint64{101, 102}, Agg: gsketch.Max})
	wantMax := float64(one(1, 101))
	if m := float64(one(1, 102)); m > wantMax {
		wantMax = m
	}
	if node.Value != wantMax {
		t.Fatalf("Answer(node MAX) = %v, want %v", node.Value, wantMax)
	}

	// AnswerBatch flattens heterogeneous queries into one estimator pass.
	batch := gsketch.AnswerBatch(g, []gsketch.Query{
		gsketch.EdgeQuery{Src: 1, Dst: 101},
		gsketch.SubgraphQuery{Edges: []gsketch.EdgeQuery{{Src: 2, Dst: 102}}, Agg: gsketch.Average},
	})
	if len(batch) != 2 || batch[0].Value != edge.Value {
		t.Fatalf("AnswerBatch = %+v", batch)
	}
}

func TestPublicInterner(t *testing.T) {
	in := gsketch.NewInterner()
	alice := in.Intern("10.0.0.1")
	bob := in.Intern("10.0.0.2")
	eng := openPopulated(t, gsketch.Config{TotalBytes: 16 << 10, Seed: 1},
		[]gsketch.Edge{{Src: alice, Dst: bob, Weight: 1}},
		[]gsketch.Edge{{Src: alice, Dst: bob, Weight: 7}})
	if est := eng.Query(alice, bob).Estimate; est < 7 {
		t.Errorf("estimate = %d", est)
	}
}

// ExampleOpen demonstrates the quickstart flow: sample, open, stream,
// query.
func ExampleOpen() {
	// A toy stream: the pair (1, 2) appears 6 times, (3, 4) once.
	stream := []gsketch.Edge{
		{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 1, Dst: 2}, {Src: 1, Dst: 2}, {Src: 1, Dst: 2},
		{Src: 3, Dst: 4},
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 16, Seed: 7}, gsketch.WithSample(stream))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), stream...); err != nil {
		panic(err)
	}
	fmt.Println(eng.Query(1, 2).Estimate)
	// Output: 6
}

// ExampleEngine_Answer demonstrates an aggregate subgraph query.
func ExampleEngine_Answer() {
	stream := []gsketch.Edge{
		{Src: 1, Dst: 2, Weight: 5},
		{Src: 2, Dst: 3, Weight: 7},
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 16, Seed: 7}, gsketch.WithSample(stream))
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), stream...); err != nil {
		panic(err)
	}
	total := eng.Answer(gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}},
		Agg:   gsketch.Sum,
	})
	fmt.Println(total.Value)
	// Output: 12
}
