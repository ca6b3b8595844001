package core

import (
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// GlobalSketch is the baseline of §3.2: a single CountMin sketch over the
// entire graph stream, blind to structure. Every edge hashes by its edge key
// l(x)⊕l(y); the relative error of a frequency-f edge is proportional to
// N/(w·f), which is what gSketch's partitioning attacks.
type GlobalSketch struct {
	syn   *sketch.CountMin
	depth int
	width int
	total int64

	// batchKeys/batchCounts are the reusable key-materialization buffers of
	// UpdateBatch. Like the sketch itself they are not safe for concurrent
	// mutation. EstimateBatch deliberately has no such buffers — reads must
	// stay pure so Concurrent's generic fallback can serve them under a
	// read lock.
	batchKeys   []uint64
	batchCounts []int64
}

// BuildGlobalSketch constructs the baseline with the same memory budget
// semantics as BuildGSketch (the whole width goes to one sketch; the
// outlier fraction is ignored).
func BuildGlobalSketch(cfg Config) (*GlobalSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	width, err := cfg.totalWidth()
	if err != nil {
		return nil, err
	}
	syn, err := cfg.newSynopsis(width)
	if err != nil {
		return nil, err
	}
	return &GlobalSketch{syn: syn, depth: cfg.Depth, width: width}, nil
}

// Update folds one edge arrival into the sketch.
func (g *GlobalSketch) Update(e stream.Edge) {
	w := e.Increment()
	g.total = sketch.AddVolume(g.total, w)
	g.syn.Update(stream.EdgeKey(e.Src, e.Dst), w)
}

// UpdateBatch folds a batch of edge arrivals: edge keys and weights are
// materialized once into reusable buffers, then the CountMin absorbs
// them in a single UpdateBatch call. State is identical to sequential
// Update in slice order.
func (g *GlobalSketch) UpdateBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	keys, counts := g.batchKeys[:0], g.batchCounts[:0]
	var total int64
	for _, e := range edges {
		w := e.Increment()
		total = sketch.AddVolume(total, w)
		keys = append(keys, stream.EdgeKey(e.Src, e.Dst))
		counts = append(counts, w)
	}
	g.syn.UpdateBatch(keys, counts)
	g.batchKeys, g.batchCounts = keys, counts
	g.total = sketch.AddVolume(g.total, total)
}

// EstimateEdge answers an edge query.
func (g *GlobalSketch) EstimateEdge(src, dst uint64) int64 {
	return g.syn.Estimate(stream.EdgeKey(src, dst))
}

// Count returns the total stream volume folded in.
func (g *GlobalSketch) Count() int64 { return g.total }

// MemoryBytes reports the counter storage footprint.
func (g *GlobalSketch) MemoryBytes() int { return g.syn.MemoryBytes() }

// Width returns the sketch's column count.
func (g *GlobalSketch) Width() int { return g.width }

// Depth returns the sketch's row count.
func (g *GlobalSketch) Depth() int { return g.depth }

// ErrorBound returns the additive CountMin bound e·N/w of Equation (1).
func (g *GlobalSketch) ErrorBound() float64 { return errorBound(g.total, g.width) }

var _ Estimator = (*GlobalSketch)(nil)
