// Package window implements the §5 extension for dynamic queries over
// specific windows in time: the timeline is divided into fixed-span
// intervals, each summarized by its own partitioned sketch. The
// partitioning of window k is built from a reservoir sample collected
// during window k-1, exactly as the paper prescribes ("The partitioning in
// any particular window is performed by using a sample, which is
// constructed by reservoir sampling from the previous window in time").
// Interval queries extrapolate from the windows overlapping the requested
// time range.
package window

import (
	"errors"
	"fmt"
	"math"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// ErrTimeOrder reports an edge arriving with a timestamp earlier than an
// already-sealed window; the store requires nondecreasing window indices.
var ErrTimeOrder = errors.New("window: edge timestamp precedes the current window")

// StoreConfig parameterizes a windowed sketch store.
type StoreConfig struct {
	// Span is the window length in stream time units; windows are
	// [k·Span, (k+1)·Span).
	Span int64
	// SampleSize is the per-window reservoir capacity feeding the next
	// window's partitioning.
	SampleSize int
	// Sketch is the per-window memory configuration. Each window gets its
	// own budget (the paper stores "the sketch statistics separately for
	// each window").
	Sketch core.Config
	// Seed decorrelates per-window reservoirs and hash families.
	Seed uint64
}

// Validate checks the configuration.
func (c StoreConfig) Validate() error {
	if c.Span <= 0 {
		return fmt.Errorf("window: span must be positive (got %d)", c.Span)
	}
	if c.SampleSize <= 0 {
		return fmt.Errorf("window: sample size must be positive (got %d)", c.SampleSize)
	}
	return c.Sketch.Validate()
}

// Window is one sealed or active time window.
type Window struct {
	// Index is the window number k; the window covers
	// [k·Span, (k+1)·Span).
	Index int64
	// Estimator summarizes the window's edges. Window 0 (no prior sample)
	// is the Global Sketch, a gSketch with no partitions; later windows
	// carry partitioned gSketches built from the previous window's
	// reservoir.
	Estimator *core.GSketch
	// Arrivals counts the edges folded into this window.
	Arrivals int64
}

// Store is the windowed sketch store. Not safe for concurrent use.
type Store struct {
	cfg      StoreConfig
	windows  []Window
	sampler  *stream.Reservoir
	rng      *hashutil.RNG
	started  bool
	curIndex int64
}

// NewStore builds an empty store.
func NewStore(cfg StoreConfig) (*Store, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		cfg: cfg,
		rng: hashutil.NewRNG(cfg.Seed ^ 0x5709e),
	}, nil
}

// Observe folds one edge arrival. Edges must arrive with nondecreasing
// window indices (stream order); an edge for an already-sealed window
// returns ErrTimeOrder.
func (s *Store) Observe(e stream.Edge) error {
	idx := e.Time / s.cfg.Span
	if e.Time < 0 {
		return fmt.Errorf("window: negative timestamp %d", e.Time)
	}
	if err := s.advance(idx); err != nil {
		return err
	}
	w := &s.windows[len(s.windows)-1]
	w.Estimator.Update(e)
	w.Arrivals++
	s.sampler.Observe(e)
	return nil
}

// ObserveBatch folds a slice of edge arrivals, handing each contiguous run
// of same-window edges to the window estimator in one UpdateBatch call so
// the batched ingest path extends through window segmentation. Edges must
// arrive in nondecreasing window order, as with Observe; on error the edges
// preceding the offending one have been applied.
func (s *Store) ObserveBatch(edges []stream.Edge) error {
	for start := 0; start < len(edges); {
		e := edges[start]
		if e.Time < 0 {
			return fmt.Errorf("window: negative timestamp %d", e.Time)
		}
		idx := e.Time / s.cfg.Span
		if err := s.advance(idx); err != nil {
			return err
		}
		// Extend the run while edges stay in the current window.
		end := start + 1
		for end < len(edges) && edges[end].Time >= 0 && edges[end].Time/s.cfg.Span == idx {
			end++
		}
		run := edges[start:end]
		w := &s.windows[len(s.windows)-1]
		w.Estimator.UpdateBatch(run)
		w.Arrivals += int64(len(run))
		for _, e := range run {
			s.sampler.Observe(e)
		}
		start = end
	}
	return nil
}

// advance makes window idx the current one. A gap in time opens only the
// window the edge falls in: the skipped windows would have held nothing,
// and a full sketch for each of them let one far-future timestamp exhaust
// memory. Only an adjacent window is partitioned from the previous
// window's reservoir; after a gap the window starts as a Global Sketch,
// exactly as it would have after an empty window.
func (s *Store) advance(idx int64) error {
	switch {
	case !s.started:
		if err := s.open(idx, false); err != nil {
			return err
		}
		s.started = true
		return nil
	case idx < s.curIndex:
		return fmt.Errorf("%w: edge at window %d, current %d", ErrTimeOrder, idx, s.curIndex)
	case idx > s.curIndex:
		return s.open(idx, idx == s.curIndex+1)
	}
	return nil
}

// open seals the current window (if any) and starts window idx, building
// its estimator from the previous window's reservoir sample when
// fromSample is set and that sample is not empty.
func (s *Store) open(idx int64, fromSample bool) error {
	cfg := s.cfg.Sketch
	cfg.Seed = s.rng.Uint64()

	var est *core.GSketch
	var err error
	if fromSample && len(s.sampler.Sample()) > 0 {
		est, err = core.BuildGSketch(cfg, s.sampler.Sample(), nil)
	} else {
		est, err = core.BuildGlobalSketch(cfg)
	}
	if err != nil {
		return fmt.Errorf("window %d: %w", idx, err)
	}
	s.windows = append(s.windows, Window{Index: idx, Estimator: est})
	s.curIndex = idx
	s.sampler = stream.NewReservoir(s.cfg.SampleSize, s.rng.Uint64())
	return nil
}

// Windows returns the store's windows in time order. The slice aliases
// internal state; callers must not mutate it.
func (s *Store) Windows() []Window { return s.windows }

// Span returns the configured window span.
func (s *Store) Span() int64 { return s.cfg.Span }

// bounds returns the first and last timestamp of window idx. A window that
// starts within a span of MaxInt64 ends there: no later timestamp exists.
func (s *Store) bounds(idx int64) (lo, hi int64) {
	lo = idx * s.cfg.Span
	return lo, lo + min(s.cfg.Span-1, math.MaxInt64-lo)
}

// overlap returns the share of window idx's timestamps that [t1, t2]
// covers, 0 when they are disjoint.
func (s *Store) overlap(idx, t1, t2 int64) float64 {
	lo, hi := s.bounds(idx)
	oLo, oHi := max(lo, t1), min(hi, t2)
	if oLo > oHi {
		return 0
	}
	return float64(oHi-oLo+1) / float64(hi-lo+1)
}

// timeline returns the first and last timestamp of the stored windows.
func (s *Store) timeline() (first, last int64) {
	first, _ = s.bounds(s.windows[0].Index)
	_, last = s.bounds(s.windows[len(s.windows)-1].Index)
	return first, last
}

// EstimateEdge estimates the frequency of (src, dst) over the time range
// [t1, t2] inclusive, extrapolating fractionally from partially overlapped
// windows ("resolved approximately by extrapolating from the sketch time
// windows which overlap most closely", §5).
func (s *Store) EstimateEdge(src, dst uint64, t1, t2 int64) float64 {
	if t2 < t1 {
		return 0
	}
	total := 0.0
	for i := range s.windows {
		w := &s.windows[i]
		if frac := s.overlap(w.Index, t1, t2); frac > 0 {
			total += frac * float64(w.Estimator.EstimateEdge(src, dst))
		}
	}
	return total
}

// EstimateEdgeAll estimates the edge's frequency over the whole stored
// timeline.
func (s *Store) EstimateEdgeAll(src, dst uint64) float64 {
	if len(s.windows) == 0 {
		return 0
	}
	first, last := s.timeline()
	return s.EstimateEdge(src, dst, first, last)
}

// EstimateBatch answers a batch of edge queries over the time range
// [t1, t2] inclusive, in input order. Each overlapping window answers the
// whole batch with one routed EstimateBatch pass, and its fractional
// overlap weight is applied to every answer — so a k-query range estimate
// touches each window's counters once per batch instead of once per query.
// Values are identical to per-query EstimateEdge.
func (s *Store) EstimateBatch(qs []core.EdgeQuery, t1, t2 int64) []float64 {
	out := make([]float64, len(qs))
	if t2 < t1 || len(qs) == 0 {
		return out
	}
	for i := range s.windows {
		w := &s.windows[i]
		frac := s.overlap(w.Index, t1, t2)
		if frac == 0 {
			continue
		}
		res := w.Estimator.EstimateBatch(qs)
		for j := range res {
			out[j] += frac * float64(res[j].Estimate)
		}
	}
	return out
}

// EstimateBatchAll answers a batch of edge queries over the whole stored
// timeline.
func (s *Store) EstimateBatchAll(qs []core.EdgeQuery) []float64 {
	if len(s.windows) == 0 {
		return make([]float64, len(qs))
	}
	first, last := s.timeline()
	return s.EstimateBatch(qs, first, last)
}

// MemoryBytes sums the counter footprint across windows.
func (s *Store) MemoryBytes() int {
	total := 0
	for i := range s.windows {
		total += s.windows[i].Estimator.MemoryBytes()
	}
	return total
}
