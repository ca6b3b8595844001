package adapt

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 256,
			Dst:    rng.Uint64() % 1024,
			Weight: 1,
		}
	}
	return edges
}

func buildSketch(t *testing.T, sample []stream.Edge, seed uint64) *core.GSketch {
	t.Helper()
	g, err := core.BuildGSketch(core.Config{TotalBytes: 64 << 10, Seed: seed}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// A chain of k generations over a split stream must (a) never underestimate
// the whole stream, (b) stay within the combined ε·N bound of its answers,
// and (c) answer exactly the sum of the per-generation answers.
func TestChainEquivalenceAcrossSplitStream(t *testing.T) {
	const k = 3
	edges := testStream(30000, 11)
	seg := len(edges) / k

	chain := NewChain(buildSketch(t, edges[:2000], 7), ChainConfig{SampleSize: 2048, Seed: 1})
	gens := make([]*core.GSketch, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*seg, (i+1)*seg
		if i == k-1 {
			hi = len(edges)
		}
		if i > 0 {
			// Rotate into a generation partitioned from the chain's own
			// reservoir (sampled from the previous segment).
			g, err := Repartition(chain, core.Config{TotalBytes: 64 << 10, Seed: uint64(i)}, nil)
			if err != nil {
				t.Fatalf("repartition %d: %v", i, err)
			}
			gens = append(gens, g)
		}
		chain.UpdateBatch(edges[lo:hi])
	}
	if got := chain.Generations(); got != k {
		t.Fatalf("generations = %d, want %d", got, k)
	}

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	if chain.Count() != exact.Total() {
		t.Fatalf("chain count = %d, want %d", chain.Count(), exact.Total())
	}

	var qs []core.EdgeQuery
	exact.RangeEdges(func(src, dst uint64, _ int64) bool {
		qs = append(qs, core.EdgeQuery{Src: src, Dst: dst})
		return len(qs) < 2000
	})
	res := chain.EstimateBatch(qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if res[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): chain estimate %d < truth %d", q.Src, q.Dst, res[i].Estimate, truth)
		}
		// The combined bound is the sum of per-generation ε·N_i bounds; the
		// realized overcount must not exceed it (deterministic seeds, ample
		// width — the probabilistic guarantee holds comfortably here).
		if over := float64(res[i].Estimate - truth); over > res[i].ErrorBound {
			t.Fatalf("edge (%d,%d): overcount %.0f exceeds combined bound %.1f",
				q.Src, q.Dst, over, res[i].ErrorBound)
		}
		if res[i].Confidence < 0 || res[i].Confidence >= 1 {
			t.Fatalf("edge (%d,%d): combined confidence %v out of [0,1)", q.Src, q.Dst, res[i].Confidence)
		}
		if res[i].StreamTotal != exact.Total() {
			t.Fatalf("edge (%d,%d): stream total %d, want chain-wide %d",
				q.Src, q.Dst, res[i].StreamTotal, exact.Total())
		}
		// The batched chain answer must equal the one-query gather.
		if got := chain.EstimateBatch([]core.EdgeQuery{q})[0].Estimate; got != res[i].Estimate {
			t.Fatalf("edge (%d,%d): one-query batch %d != batched %d", q.Src, q.Dst, got, res[i].Estimate)
		}
	}
}

// Chain answers are exactly the sum of each generation queried alone.
func TestChainIsSumOfGenerations(t *testing.T) {
	edges := testStream(9000, 3)
	g1 := buildSketch(t, edges[:1000], 5)
	chain := NewChain(g1, ChainConfig{})
	chain.UpdateBatch(edges[:4500])
	g2 := buildSketch(t, edges[4000:5000], 6)
	if err := chain.Rotate(g2); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[4500:])

	qs := []core.EdgeQuery{}
	for _, e := range edges[:200] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	res := chain.EstimateBatch(qs)
	r1 := g1.EstimateBatch(qs)
	r2 := g2.EstimateBatch(qs)
	for i := range qs {
		if want := r1[i].Estimate + r2[i].Estimate; res[i].Estimate != want {
			t.Fatalf("query %d: chain %d != g1+g2 %d", i, res[i].Estimate, want)
		}
		// The summed bound widens by 2^(1/d), so that it holds at one δ.
		d := -math.Log1p(-r1[i].Confidence)
		if want := (r1[i].ErrorBound + r2[i].ErrorBound) * math.Pow(2, 1/d); math.Abs(res[i].ErrorBound-want) > 1e-9*want {
			t.Fatalf("query %d: chain bound %v != summed·2^(1/d) %v", i, res[i].ErrorBound, want)
		}
		if res[i].Confidence != r1[i].Confidence {
			t.Fatalf("query %d: chain confidence %v, want one generation's %v", i, res[i].Confidence, r1[i].Confidence)
		}
		// Provenance comes from the head generation.
		if res[i].Partition != r2[i].Partition || res[i].Outlier != r2[i].Outlier {
			t.Fatalf("query %d: provenance %v/%v, want head's %v/%v",
				i, res[i].Partition, res[i].Outlier, r2[i].Partition, r2[i].Outlier)
		}
	}
}

func TestChainRotateCapAndReservoirReset(t *testing.T) {
	edges := testStream(2000, 9)
	chain := NewChain(buildSketch(t, edges[:500], 1), ChainConfig{SampleSize: 128, MaxGenerations: 2})
	chain.UpdateBatch(edges)
	if chain.SampleSize() == 0 {
		t.Fatal("reservoir empty after updates")
	}
	if err := chain.Rotate(buildSketch(t, edges[:500], 2)); err != nil {
		t.Fatal(err)
	}
	if got := chain.SampleSize(); got != 0 {
		t.Fatalf("reservoir not reset on rotate: %d", got)
	}
	if err := chain.Rotate(buildSketch(t, edges[:500], 3)); err == nil {
		t.Fatal("rotate beyond MaxGenerations succeeded")
	}
	// Repartition refuses at the cap BEFORE paying for a build.
	chain.UpdateBatch(edges)
	if _, err := Repartition(chain, core.Config{TotalBytes: 16 << 10, Seed: 4}, nil); !errors.Is(err, ErrMaxGenerations) {
		t.Fatalf("repartition at cap: err = %v, want ErrMaxGenerations", err)
	}
}

// A serialized chain restores byte-identically: same generations, same
// answers, same chain-wide totals.
func TestChainSerializationRoundTrip(t *testing.T) {
	edges := testStream(12000, 21)
	chain := NewChain(buildSketch(t, edges[:1500], 4), ChainConfig{SampleSize: 512, Seed: 9})
	chain.UpdateBatch(edges[:6000])
	if _, err := Repartition(chain, core.Config{TotalBytes: 64 << 10, Seed: 8}, edges[200:400]); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[6000:])

	var buf bytes.Buffer
	if _, err := chain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	gens, _, err := core.ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewChainFromMeta(gens, nil, chain.Config())
	if restored.Generations() != chain.Generations() {
		t.Fatalf("generations = %d, want %d", restored.Generations(), chain.Generations())
	}
	if restored.Count() != chain.Count() {
		t.Fatalf("count = %d, want %d", restored.Count(), chain.Count())
	}
	var qs []core.EdgeQuery
	for _, e := range edges[:500] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	want := chain.EstimateBatch(qs)
	got := restored.EstimateBatch(qs)
	for i := range qs {
		if got[i].Estimate != want[i].Estimate || got[i].ErrorBound != want[i].ErrorBound {
			t.Fatalf("query %d: restored (%d, %v) != live (%d, %v)",
				i, got[i].Estimate, got[i].ErrorBound, want[i].Estimate, want[i].ErrorBound)
		}
	}
}

// The append path of a chain answers what EstimateBatch answers — behind
// the caller's prefix, over a buffer a larger batch left dirty, with the
// per-generation scratch reused from call to call — across frozen and
// spilled generations.
func TestChainAppendEstimatesMatchesEstimateBatch(t *testing.T) {
	edges := testStream(12_000, 41)
	chain := NewChain(buildSketch(t, edges[:1000], 5), ChainConfig{})
	now := time.Unix(1_000_000, 0)
	chain.SetClock(func() time.Time { return now })
	chain.SetTiering(t.TempDir(), 1)
	for g := 0; g < 3; g++ {
		chain.UpdateBatch(edges[g*3000 : (g+1)*3000])
		now = now.Add(30 * time.Minute)
		if err := chain.Rotate(buildSketch(t, edges[g*3000:g*3000+1000], uint64(6+g))); err != nil {
			t.Fatal(err)
		}
	}
	chain.UpdateBatch(edges[9000:])
	if st := chain.LifecycleStats(); st.Generations != 4 || st.Tiered == 0 {
		t.Fatalf("fixture: %+v, want 4 generations, some tiered", st)
	}

	marker := core.Result{Estimate: -1}
	buf := []core.Result{marker}
	for _, n := range []int{500, 3, 0, 700} {
		qs := make([]core.EdgeQuery, n)
		for i := range qs {
			qs[i] = core.EdgeQuery{Src: edges[i*13].Src, Dst: edges[i*13].Dst}
		}
		want := chain.EstimateBatch(qs)
		buf = chain.AppendEstimates(buf[:1], qs)
		if len(buf) != 1+n || buf[0] != marker {
			t.Fatalf("n=%d: %d results behind prefix %+v", n, len(buf)-1, buf[0])
		}
		for i := range want {
			if buf[1+i] != want[i] {
				t.Fatalf("n=%d result %d = %+v, want %+v", n, i, buf[1+i], want[i])
			}
		}
	}
}
