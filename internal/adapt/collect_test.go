package adapt

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
)

// TestDisplacedChainCollected: a chain dropped after gathering across two
// generations — as Restore drops the chain it displaces — is freed, with
// its generations, by the next collection. An embedded scratch pool used
// in this GC cycle kept the chain reachable through that collection.
func TestDisplacedChainCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the test's
	freed := make(chan struct{})
	func() {
		edges := testStream(4000, 3)
		g := buildSketch(t, edges[:2000], 1)
		runtime.SetFinalizer(g, func(*core.GSketch) { close(freed) })
		chain := NewChain(g, ChainConfig{SampleSize: 512, Seed: 1})
		chain.UpdateBatch(edges[:2000])
		if err := chain.Rotate(buildSketch(t, edges[:2000], 2)); err != nil {
			t.Fatal(err)
		}
		chain.UpdateBatch(edges[2000:])
		chain.EstimateBatch(chainQueries(edges, 256))
		chain.Discard()
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("the displaced chain's frozen generation outlived one collection")
	}
}

// TestChainDropCollected: a chain that spills a generation or folds two
// collects once, so the counters it dropped are freed by the time the call
// returns — the chain's own collection is the only one that runs. The live
// sketches, counted by finalizer, then equal the resident generations.
func TestChainDropCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the chain's
	var live atomic.Int64
	track := func(g *core.GSketch) *core.GSketch {
		live.Add(1)
		runtime.SetFinalizer(g, func(*core.GSketch) { live.Add(-1) })
		return g
	}
	edges := testStream(6000, 5)
	qs := chainQueries(edges, 256)
	cfg := core.Config{TotalBytes: 64 << 10, Seed: 1}
	build := func() *core.GSketch {
		g, err := core.BuildGSketch(cfg, edges[:2000], nil) // one layout: the fold is exact
		if err != nil {
			t.Fatal(err)
		}
		return track(g)
	}
	chain := NewChain(build(), ChainConfig{SampleSize: 512, Seed: 1})
	chain.SetTiering(t.TempDir(), 1)
	waitLive := func(when string) {
		t.Helper()
		want := int64(chain.LifecycleStats().Resident)
		for deadline := time.Now().Add(time.Second); live.Load() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d sketches live, %d generations resident", when, live.Load(), want)
			}
		}
	}

	// The second rotation leaves two frozen generations and spills one; a
	// gather after it would reload that one, so the gathers come before.
	for i := 0; i < 2; i++ {
		chain.UpdateBatch(edges[i*2000 : (i+1)*2000])
		chain.EstimateBatch(qs)
		if err := chain.Rotate(build()); err != nil {
			t.Fatal(err)
		}
	}
	if st := chain.LifecycleStats(); st.Generations != 3 || st.Resident != 2 {
		t.Fatalf("after two rotations: %+v, want 3 generations with one spilled", st)
	}
	waitLive("after the spill")

	res, err := chain.Compact(2, cfg, nil)
	if err != nil || res.Folded != 2 {
		t.Fatalf("Compact = %+v, %v; want two generations folded", res, err)
	}
	track(chain.gens[0].Sketch())
	chain.EstimateBatch(qs)
	if st := chain.LifecycleStats(); st.Generations != 2 || st.Resident != 2 {
		t.Fatalf("after the fold: %+v, want 2 resident generations", st)
	}
	waitLive("after the fold")
}
