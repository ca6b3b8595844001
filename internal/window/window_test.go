package window

import (
	"errors"
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func storeConfig() StoreConfig {
	return StoreConfig{
		Span:       100,
		SampleSize: 200,
		Sketch:     core.Config{TotalBytes: 32 << 10},
		Seed:       1,
	}
}

func TestStoreWindowRollover(t *testing.T) {
	s, err := NewStore(storeConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := hashutil.NewRNG(2)
	for ts := int64(0); ts < 350; ts++ {
		e := stream.Edge{Src: rng.Uint64() % 50, Dst: rng.Uint64() % 50, Weight: 1, Time: ts}
		if err := s.Observe(e); err != nil {
			t.Fatal(err)
		}
	}
	ws := s.Windows()
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4 (timestamps 0..349, span 100)", len(ws))
	}
	// Window 0 has no prior sample → global; later windows partitioned.
	if ws[0].Estimator.NumPartitions() != 0 {
		t.Error("window 0 should not be partitioned (no prior sample)")
	}
	for i := 1; i < len(ws); i++ {
		if ws[i].Estimator.NumPartitions() == 0 {
			t.Errorf("window %d not partitioned despite prior reservoir", i)
		}
	}
	var total int64
	for _, w := range ws {
		total += w.Arrivals
	}
	if total != 350 {
		t.Errorf("arrivals across windows = %d, want 350", total)
	}
	if s.MemoryBytes() <= 0 {
		t.Error("memory unreported")
	}
}

func TestStoreEstimates(t *testing.T) {
	s, _ := NewStore(storeConfig())
	// Edge (7,8) appears 10 times in window 0 and 20 times in window 1.
	for i := 0; i < 10; i++ {
		mustObserve(t, s, stream.Edge{Src: 7, Dst: 8, Weight: 1, Time: int64(i)})
	}
	for i := 0; i < 20; i++ {
		mustObserve(t, s, stream.Edge{Src: 7, Dst: 8, Weight: 1, Time: 100 + int64(i)})
	}
	// Whole-lifetime estimate ≥ 30 (CountMin overestimates).
	if got := s.EstimateEdgeAll(7, 8); got < 30 {
		t.Errorf("lifetime estimate = %v, want ≥ 30", got)
	}
	// Window-0-only estimate ≈ 10.
	if got := s.EstimateEdge(7, 8, 0, 99); got < 10 || got > 15 {
		t.Errorf("window-0 estimate = %v, want ≈ 10", got)
	}
	// Half of window 1 extrapolates to ~half of its count.
	got := s.EstimateEdge(7, 8, 100, 149)
	if math.Abs(got-10) > 3 {
		t.Errorf("half-window estimate = %v, want ≈ 10 (20 × 0.5)", got)
	}
	// Disjoint range: zero.
	if got := s.EstimateEdge(7, 8, 500, 600); got != 0 {
		t.Errorf("estimate outside stored windows = %v", got)
	}
	// Inverted range: zero.
	if got := s.EstimateEdge(7, 8, 50, 10); got != 0 {
		t.Errorf("inverted range = %v", got)
	}
}

func TestStoreTimeOrder(t *testing.T) {
	s, _ := NewStore(storeConfig())
	mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Time: 250})
	if err := s.Observe(stream.Edge{Src: 1, Dst: 2, Time: 50}); !errors.Is(err, ErrTimeOrder) {
		t.Errorf("stale edge error = %v, want ErrTimeOrder", err)
	}
	if err := s.Observe(stream.Edge{Src: 1, Dst: 2, Time: -5}); err == nil {
		t.Error("negative timestamp accepted")
	}
}

func TestStoreSkippedWindows(t *testing.T) {
	s, _ := NewStore(storeConfig())
	mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Time: 10})
	mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Time: 510}) // jumps 4 windows
	ws := s.Windows()
	if len(ws) != 2 || ws[0].Index != 0 || ws[1].Index != 5 {
		t.Fatalf("got %d windows, want 2 (indices 0 and 5): %+v", len(ws), ws)
	}
	if ws[1].Arrivals != 1 {
		t.Errorf("window 5 arrivals = %d", ws[1].Arrivals)
	}
	// After a gap there is no previous-window sample to partition from.
	if ws[1].Estimator.NumPartitions() != 0 {
		t.Error("window 5 follows a gap and should not be partitioned")
	}
}

// TestStoreLastWindowBeforeMaxInt64: a window that starts within a span of
// MaxInt64 ends there. Its end must not wrap negative, or every range
// query would skip it and undercount its arrivals as 0.
func TestStoreLastWindowBeforeMaxInt64(t *testing.T) {
	s, err := NewStore(StoreConfig{Span: 10, SampleSize: 16, Sketch: core.Config{TotalWidth: 256, Seed: 3}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustObserve(t, s, stream.Edge{Src: 1, Dst: 2, Time: math.MaxInt64})
	}
	// The window holds [MaxInt64-7, MaxInt64]; its sketch counts the one
	// key exactly, so the arithmetic is exact.
	if got := s.EstimateEdgeAll(1, 2); got != 5 {
		t.Errorf("EstimateEdgeAll = %v, want 5", got)
	}
	if got := s.EstimateBatch([]core.EdgeQuery{{Src: 1, Dst: 2}}, 0, math.MaxInt64); got[0] != 5 {
		t.Errorf("EstimateBatch over [0, MaxInt64] = %v, want 5", got[0])
	}
	if got := s.EstimateBatchAll([]core.EdgeQuery{{Src: 1, Dst: 2}}); got[0] != 5 {
		t.Errorf("EstimateBatchAll = %v, want 5", got[0])
	}
	// Six of the window's eight timestamps.
	if got := s.EstimateEdge(1, 2, math.MaxInt64-5, math.MaxInt64); got != 5*6.0/8 {
		t.Errorf("EstimateEdge over the last six timestamps = %v, want %v", got, 5*6.0/8)
	}
}

// TestStoreFarFutureGap: one edge a million spans past the current window
// opens one window, not a million, for Observe and ObserveBatch alike; the
// gap answers 0 and the new window never undercounts.
func TestStoreFarFutureGap(t *testing.T) {
	const gap = 1_000_000
	cfg := storeConfig()
	cfg.Span = 60
	far := int64(gap)*cfg.Span + 7
	late := []stream.Edge{
		{Src: 3, Dst: 4, Weight: 2, Time: far},
		{Src: 3, Dst: 4, Weight: 1, Time: far + 1},
		{Src: 5, Dst: 6, Weight: 1, Time: far + 2},
	}
	for name, observe := range map[string]func(*Store) error{
		"Observe": func(s *Store) error {
			for _, e := range late {
				if err := s.Observe(e); err != nil {
					return err
				}
			}
			return nil
		},
		"ObserveBatch": func(s *Store) error { return s.ObserveBatch(late) },
	} {
		t.Run(name, func(t *testing.T) {
			s, err := NewStore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustObserve(t, s, stream.Edge{Src: 3, Dst: 4, Weight: 1, Time: 0})
			one := s.MemoryBytes()
			if err := observe(s); err != nil {
				t.Fatal(err)
			}
			ws := s.Windows()
			if len(ws) != 2 || ws[1].Index != gap {
				t.Fatalf("got %d windows, want 2 (indices 0 and %d)", len(ws), gap)
			}
			if got := s.MemoryBytes(); got != 2*one {
				t.Fatalf("MemoryBytes = %d, want two sketches' %d", got, 2*one)
			}
			if got := s.EstimateEdge(3, 4, cfg.Span, int64(gap)*cfg.Span-1); got != 0 {
				t.Fatalf("estimate over the gap = %v, want 0", got)
			}
			if got := s.EstimateEdge(3, 4, int64(gap)*cfg.Span, int64(gap+1)*cfg.Span-1); got < 3 {
				t.Fatalf("estimate on the far window = %v, below truth 3", got)
			}
		})
	}
}

func TestStoreConfigValidation(t *testing.T) {
	bad := []StoreConfig{
		{Span: 0, SampleSize: 10, Sketch: core.Config{TotalBytes: 1 << 20}},
		{Span: 10, SampleSize: 0, Sketch: core.Config{TotalBytes: 1 << 20}},
		{Span: 10, SampleSize: 10, Sketch: core.Config{}},
	}
	for i, cfg := range bad {
		if _, err := NewStore(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestStoreAccuracyAgainstExact(t *testing.T) {
	// End to end: windowed estimates should track exact per-window counts
	// within CountMin overestimation.
	s, _ := NewStore(StoreConfig{
		Span:       1000,
		SampleSize: 500,
		Sketch:     core.Config{TotalBytes: 256 << 10},
		Seed:       3,
	})
	exact := stream.NewExactCounter()
	rng := hashutil.NewRNG(4)
	for ts := int64(0); ts < 5000; ts++ {
		e := stream.Edge{Src: rng.Uint64() % 100, Dst: rng.Uint64() % 100, Weight: 1, Time: ts}
		mustObserve(t, s, e)
		exact.Observe(e)
	}
	var over, n float64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		est := s.EstimateEdgeAll(src, dst)
		if est < float64(f)-0.01 {
			t.Fatalf("windowed estimate %v below truth %d for (%d,%d)", est, f, src, dst)
		}
		over += est - float64(f)
		n++
		return true
	})
	if mean := over / n; mean > 5 {
		t.Errorf("mean overestimate %v too large for this budget", mean)
	}
}

func mustObserve(t *testing.T, s *Store, e stream.Edge) {
	t.Helper()
	if err := s.Observe(e); err != nil {
		t.Fatal(err)
	}
}
