package window

import (
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func batchWindowConfig() StoreConfig {
	return StoreConfig{
		Span:       100,
		SampleSize: 500,
		Sketch:     core.Config{TotalWidth: 1024, Seed: 21},
		Seed:       22,
	}
}

func timedStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 500,
			Dst:    rng.Uint64() % 2000,
			Weight: 1,
			Time:   int64(i) / 20, // ~5 windows over n=10000 at span 100
		}
	}
	return edges
}

// TestObserveBatchMatchesObserve proves the batched window path produces
// the same windows, arrivals, reservoir state and estimates as per-edge
// Observe.
func TestObserveBatchMatchesObserve(t *testing.T) {
	edges := timedStream(10_000, 31)

	seq, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if err := seq.Observe(e); err != nil {
			t.Fatal(err)
		}
	}

	bat, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Deliver in uneven slices that straddle window boundaries.
	for lo := 0; lo < len(edges); {
		hi := lo + 777
		if hi > len(edges) {
			hi = len(edges)
		}
		if err := bat.ObserveBatch(edges[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}

	sw, bw := seq.Windows(), bat.Windows()
	if len(sw) != len(bw) {
		t.Fatalf("window count %d vs %d", len(sw), len(bw))
	}
	for i := range sw {
		if sw[i].Index != bw[i].Index || sw[i].Arrivals != bw[i].Arrivals || sw[i].Estimator.NumPartitions() != bw[i].Estimator.NumPartitions() {
			t.Fatalf("window %d: {%d %d %v} vs {%d %d %v}", i,
				sw[i].Index, sw[i].Arrivals, sw[i].Estimator.NumPartitions(),
				bw[i].Index, bw[i].Arrivals, bw[i].Estimator.NumPartitions())
		}
	}
	for _, e := range edges[:2000] {
		s := seq.EstimateEdgeAll(e.Src, e.Dst)
		b := bat.EstimateEdgeAll(e.Src, e.Dst)
		if s != b {
			t.Fatalf("estimate (%d,%d): %v vs %v", e.Src, e.Dst, s, b)
		}
	}
}

func TestObserveBatchRejectsOutOfOrder(t *testing.T) {
	s, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	good := []stream.Edge{{Src: 1, Dst: 2, Time: 500}}
	if err := s.ObserveBatch(good); err != nil {
		t.Fatal(err)
	}
	stale := []stream.Edge{{Src: 1, Dst: 2, Time: 100}}
	if err := s.ObserveBatch(stale); err == nil {
		t.Fatal("stale batch accepted")
	}
	negative := []stream.Edge{{Src: 1, Dst: 2, Time: -1}}
	if err := s.ObserveBatch(negative); err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestObserveBatchEmpty(t *testing.T) {
	s, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(nil); err != nil {
		t.Fatal(err)
	}
	if len(s.Windows()) != 0 {
		t.Fatal("empty batch opened a window")
	}
}
