package window

import (
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// fractionalStore holds edge (1,2) exactly 10 times in window 0 ([0,99])
// and 40 times in window 1 ([100,199]). Each window's CountMin holds that one
// key, so it counts it exactly — asserted here — and the fractional-overlap
// arithmetic can be asserted precisely.
func fractionalStore(t *testing.T) *Store {
	t.Helper()
	s, err := NewStore(StoreConfig{
		Span:       100,
		SampleSize: 100,
		Sketch:     core.Config{TotalWidth: 256, Seed: 5},
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Weight: 1, Time: int64(i * 10)})
	}
	for i := 0; i < 40; i++ {
		mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Weight: 1, Time: 100 + int64(i%100)})
	}
	for i, want := range []int64{10, 40} {
		if got := s.Windows()[i].Estimator.EstimateEdge(1, 2); got != want {
			t.Fatalf("window %d estimates %d, want its exact count %d", i, got, want)
		}
	}
	return s
}

// TestEstimateEdgeFractionalOverlap pins the §5 extrapolation arithmetic:
// a partially overlapped window contributes overlap/span of its count.
func TestEstimateEdgeFractionalOverlap(t *testing.T) {
	s := fractionalStore(t)
	cases := []struct {
		name   string
		t1, t2 int64
		want   float64
	}{
		{"exact-window-0", 0, 99, 10},
		{"exact-window-1", 100, 199, 40},
		{"both-whole", 0, 199, 50},
		{"half-of-0", 0, 49, 5},                         // 0.5 × 10
		{"quarter-of-1", 100, 124, 10},                  // 0.25 × 40
		{"straddle", 50, 149, 25},                       // 0.5 × 10 + 0.5 × 40
		{"one-tick", 100, 100, 0.4},                     // 0.01 × 40
		{"t1-before-range", -500, 49, 5},                // clamps to window 0's start
		{"t2-after-range", 150, 10_000, 20},             // 0.5 × 40, nothing stored past 199
		{"whole-range-oversized", -1000, 1_000_000, 50}, // full overlap both windows
		{"entirely-before", -100, -1, 0},
		{"entirely-after", 200, 400, 0},
		{"inverted", 150, 50, 0},
	}
	for _, c := range cases {
		if got := s.EstimateEdge(1, 2, c.t1, c.t2); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: EstimateEdge(1,2,%d,%d) = %v, want %v", c.name, c.t1, c.t2, got, c.want)
		}
		batch := s.EstimateBatch([]core.EdgeQuery{{Src: 1, Dst: 2}}, c.t1, c.t2)
		if math.Abs(batch[0]-c.want) > 1e-9 {
			t.Errorf("%s: EstimateBatch(1,2,%d,%d) = %v, want %v", c.name, c.t1, c.t2, batch[0], c.want)
		}
	}
}

// TestEstimateBatchMatchesEstimateEdge proves the per-window batch fan-out
// returns exactly the per-query values on realistic (CountMin, partitioned)
// windows.
func TestEstimateBatchMatchesEstimateEdge(t *testing.T) {
	edges := timedStream(10_000, 61)
	s, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch(edges); err != nil {
		t.Fatal(err)
	}

	qs := make([]core.EdgeQuery, 0, 3000)
	for _, e := range edges[:1500] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
		qs = append(qs, core.EdgeQuery{Src: e.Src + 10_000, Dst: e.Dst}) // absent
	}
	ranges := [][2]int64{{0, 499}, {120, 380}, {-50, 10_000}, {250, 250}, {400, 100}}
	for _, r := range ranges {
		got := s.EstimateBatch(qs, r[0], r[1])
		for i, q := range qs {
			want := s.EstimateEdge(q.Src, q.Dst, r[0], r[1])
			if got[i] != want {
				t.Fatalf("range [%d,%d] query %d (%d,%d): batch %v, sequential %v",
					r[0], r[1], i, q.Src, q.Dst, got[i], want)
			}
		}
	}
	all := s.EstimateBatchAll(qs)
	for i, q := range qs {
		if want := s.EstimateEdgeAll(q.Src, q.Dst); all[i] != want {
			t.Fatalf("all-range query %d: batch %v, sequential %v", i, all[i], want)
		}
	}
}

func TestEstimateBatchEmptyStore(t *testing.T) {
	s, err := NewStore(batchWindowConfig())
	if err != nil {
		t.Fatal(err)
	}
	qs := []core.EdgeQuery{{Src: 1, Dst: 2}}
	if got := s.EstimateBatchAll(qs); len(got) != 1 || got[0] != 0 {
		t.Fatalf("empty store EstimateBatchAll = %v", got)
	}
	if got := s.EstimateBatch(nil, 0, 100); len(got) != 0 {
		t.Fatalf("nil batch returned %d values", len(got))
	}
}
