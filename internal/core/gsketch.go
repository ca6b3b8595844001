package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

// Estimator is the query surface of a graph-stream frequency summary
// answering edge-frequency point queries: GSketch, its Concurrent wrapper
// and the adaptive chain implement it. It is batch-only; the paper's
// per-edge update and point query stay on GSketch (Update, EstimateEdge)
// as the reference the batched paths are tested against.
type Estimator interface {
	// UpdateBatch folds a slice of edge arrivals in slice order, producing
	// the same state as GSketch.Update over the same edges while
	// amortizing routing and dispatch across the batch. A zero Weight
	// counts as 1 (the paper's default frequency).
	UpdateBatch(edges []stream.Edge)
	// EstimateBatch answers a batch of edge queries in one routed pass,
	// returning one Result per query in input order. Each Result carries
	// the point estimate — identical to GSketch.EstimateEdge on the same
	// state — plus the answering partition, that sketch's ε·N_i error
	// bound with its 1-δ confidence, and a snapshot of the stream total.
	EstimateBatch(qs []EdgeQuery) []Result
	// Count returns the total stream volume N folded in so far.
	Count() int64
	// MemoryBytes reports the counter storage footprint.
	MemoryBytes() int
}

// populateChunk bounds the batch size Populate hands to UpdateBatch so the
// grouping's buffers stay cache-resident instead of growing with the stream.
const populateChunk = 8192

// Populate streams every edge of a slice into an estimator in batches.
func Populate(est Estimator, edges []stream.Edge) {
	for len(edges) > populateChunk {
		est.UpdateBatch(edges[:populateChunk])
		edges = edges[populateChunk:]
	}
	if len(edges) > 0 {
		est.UpdateBatch(edges)
	}
}

// GSketch is the partitioned estimator of the paper: localized sketches
// per vertex-population partition, a router H : V → S_i, and an outlier
// sketch for vertices outside the sample. Build it with BuildGSketch; it is
// not safe for concurrent mutation (see Concurrent for a locking wrapper).
//
// The localized sketches — one CountMin shard per partition, the outlier
// shard last — live in one sketch.Bank, the sketch's only counter store:
// the batch paths drive it with one kernel call per run of routed
// positions, and single-edge calls go to its per-shard CountMin view.
type GSketch struct {
	cfg    Config
	bank   *sketch.Bank
	router *Router
	leaves []Leaf
	order  vstats.SortOrder
	// total is atomic so the sharded concurrent writer can fold volume in
	// from several goroutines without a lock (everything else it touches is
	// per-shard).
	total atomic.Int64
	// scratch is the routed-batch grouping of UpdateBatch and EstimateBatch;
	// lazily allocated, reused across batches. Like the rest of GSketch it
	// is not safe for concurrent use — Concurrent keeps its own pool.
	scratch *grouping

	// writeHits / readHits count routed traffic per shard (outlier shard
	// last), split by direction. They are atomic so the batch route passes —
	// which run lock-free under Concurrent — can fold in per-shard arrival
	// counts without synchronization. Runtime observability only: they are
	// not serialized.
	writeHits []atomic.Int64
	readHits  []atomic.Int64

	outlierWidth int
	totalWidth   int
}

// BuildGSketch constructs a gSketch from a data sample and, optionally, a
// query-workload sample (nil selects the scenario-A objective of §4.1;
// non-nil selects §4.2). The samples steer partitioning only — stream
// population happens afterwards via Update. A negative weight in the data
// sample fails with vstats.ErrNegativeWeight.
func BuildGSketch(cfg Config, dataSample, workloadSample []stream.Edge) (*GSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(dataSample) == 0 {
		return nil, ErrEmptySample
	}
	stats, err := vstats.FromEdges(dataSample)
	if err != nil {
		return nil, err
	}
	return BuildGSketchFromSampleStats(cfg, stats, workloadSample)
}

// BuildGSketchFromSampleStats is BuildGSketch from the statistics of the
// data sample instead of the sample itself — vstats.FromFile computes them
// from a file it never holds. A non-empty workload sample is applied to
// stats and selects the §4.2 objective, as in BuildGSketch.
func BuildGSketchFromSampleStats(cfg Config, stats *vstats.Stats, workloadSample []stream.Edge) (*GSketch, error) {
	order := vstats.ByAvgFreq
	if len(workloadSample) > 0 {
		stats.ApplyWorkload(workloadSample)
		order = vstats.ByFreqPerWeight
	}
	return BuildGSketchFromStats(cfg, stats, order)
}

// BuildGSketchFromStats constructs a gSketch from precomputed vertex
// statistics, for callers that maintain their own sampling pipeline.
func BuildGSketchFromStats(cfg Config, stats *vstats.Stats, order vstats.SortOrder) (*GSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildFromStats(cfg.withDefaults(), stats, order)
}

func buildFromStats(cfg Config, stats *vstats.Stats, order vstats.SortOrder) (*GSketch, error) {
	totalWidth, err := cfg.totalWidth()
	if err != nil {
		return nil, err
	}

	outlierWidth := 0
	if cfg.OutlierFraction > 0 {
		outlierWidth = int(math.Round(cfg.OutlierFraction * float64(totalWidth)))
		if outlierWidth < 1 {
			outlierWidth = 1
		}
	}
	partWidth := totalWidth - outlierWidth
	if partWidth < 1 {
		return nil, fmt.Errorf("%w: width %d leaves no room for partitions after outlier reservation", ErrConfig, totalWidth)
	}

	part, err := BuildPartitioning(stats, PartitionParams{
		Width:         partWidth,
		MinWidth:      cfg.MinWidth,
		CollisionC:    cfg.CollisionC,
		MaxPartitions: cfg.MaxPartitions,
		Order:         order,
	})
	if err != nil {
		return nil, err
	}

	g := &GSketch{
		cfg:          cfg,
		router:       buildRouter(part.Vertices, part.LeafOf),
		leaves:       part.Leaves,
		order:        order,
		outlierWidth: outlierWidth,
		totalWidth:   totalWidth,
	}
	if err := g.allocShards(); err != nil {
		return nil, err
	}
	return g, nil
}

// BuildGlobalSketch constructs the Global Sketch baseline of §3.2: one
// CountMin over edge keys l(x)⊕l(y), blind to structure, whose relative
// error on a frequency-f edge is proportional to N/(w·f). It is the gSketch
// of an empty partitioning — no leaves, an empty router, and an outlier
// shard of the whole width that every vertex falls through to — so each
// answer is an outlier answer (Result.Outlier, NoPartition) carrying the
// global e·N/w bound. The shard draws its row hashes from cfg.Seed, as
// sketch.NewCountMin(width, depth, cfg.Seed) does; OutlierFraction is
// ignored.
func BuildGlobalSketch(cfg Config) (*GSketch, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	width, err := cfg.totalWidth()
	if err != nil {
		return nil, err
	}
	g := &GSketch{cfg: cfg, router: NewRouter(0), outlierWidth: width, totalWidth: width}
	if err := g.allocShards(); err != nil {
		return nil, err
	}
	return g, nil
}

// allocShards allocates the counters and routing stats for the layout in
// g.leaves and g.outlierWidth. Each shard gets an independent hash family
// derived from the master seed so cross-partition collisions are
// uncorrelated; the outlier shard of a leafless sketch (the Global Sketch)
// hashes with the master seed itself.
func (g *GSketch) allocShards() error {
	n := g.NumShards()
	widths, seeds := make([]int, n), make([]uint64, n)
	for i, leaf := range g.leaves {
		widths[i], seeds[i] = leaf.Width, hashutil.Mix64(g.cfg.Seed+uint64(i)+1)
	}
	if g.outlierWidth > 0 {
		seed := hashutil.Mix64(g.cfg.Seed ^ 0xa11ce5)
		if len(g.leaves) == 0 {
			seed = g.cfg.Seed
		}
		widths[n-1], seeds[n-1] = g.outlierWidth, seed
	}
	g.initRouteStats()
	var err error
	g.bank, err = sketch.NewBank(widths, g.cfg.Depth, seeds, g.cfg.Conservative)
	return err
}

// NumShards returns the number of independent update domains: one per
// partition, plus one for the outlier sketch when enabled. Shard i <
// NumPartitions() is partition i; the outlier shard (if any) is the last.
func (g *GSketch) NumShards() int {
	if g.outlierWidth > 0 {
		return len(g.leaves) + 1
	}
	return len(g.leaves)
}

// Route returns the shard index a source vertex's edges update. The router
// is immutable after construction, so Route is safe to call concurrently
// with shard-local writes — the property the sharded ingest path builds on.
func (g *GSketch) Route(src uint64) int {
	return g.routeMixed(hashutil.Mix64(src), src)
}

// routeMixed is Route with Mix64(src) precomputed (shared with edge-key
// derivation on the grouping's routing pass).
func (g *GSketch) routeMixed(mixed, src uint64) int {
	if i, ok := g.router.getMixed(mixed, src); ok {
		return int(i)
	}
	if g.outlierWidth > 0 {
		return len(g.leaves)
	}
	return 0
}

// addTotal folds stream volume into the atomic total, saturating at
// MaxInt64, for every writer: Concurrent applies counter updates
// shard-by-shard from several goroutines, so the sum is a CAS loop rather
// than a load and a store.
func (g *GSketch) addTotal(n int64) {
	for {
		old := g.total.Load()
		if g.total.CompareAndSwap(old, sketch.AddVolume(old, n)) {
			return
		}
	}
}

// Update folds one edge arrival into its localized sketch.
func (g *GSketch) Update(e stream.Edge) {
	w := e.Increment()
	g.addTotal(w)
	shard := g.Route(e.Src)
	g.writeHits[shard].Add(1)
	g.bank.Sketch(shard).Update(stream.EdgeKey(e.Src, e.Dst), w)
}

// batchScratch returns the sketch's own grouping, allocating it on first
// use.
func (g *GSketch) batchScratch() *grouping {
	if g.scratch == nil {
		g.scratch = newGrouping(g.NumShards(), 1)
	}
	return g.scratch
}

// UpdateBatch folds a batch of edge arrivals through the routed-batch
// grouping: the batch is first grouped by destination shard (touching only
// the flat router), each run of adjacent equal edges folded into one
// position, then the bank absorbs the whole shard-major batch in one
// UpdateRouted call — O(batch + touched shards), whatever the partition
// count. Within a shard the stream order is preserved, so the resulting
// counters are byte-identical to sequential Update — partitions are
// independent, so cross-shard reordering is unobservable.
func (g *GSketch) UpdateBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	gr := g.batchScratch()
	total := gr.routeEdges(g, edges)
	gr.update(g, 0, len(gr.touched))
	g.addTotal(total)
}

// EstimateEdge answers an edge query from the localized sketch the edge's
// source routes to.
func (g *GSketch) EstimateEdge(src, dst uint64) int64 {
	shard := g.Route(src)
	g.readHits[shard].Add(1)
	return g.bank.Sketch(shard).Estimate(stream.EdgeKey(src, dst))
}

// Count returns the total stream volume folded in.
func (g *GSketch) Count() int64 { return g.total.Load() }

// MemoryBytes reports the summed counter footprint of all partitions and
// the outlier sketch. The router is reported separately by RouterBytes.
func (g *GSketch) MemoryBytes() int { return g.bank.MemoryBytes() }

// RouterBytes reports the exact footprint of the vertex→partition table H:
// allocated capacity × 12-byte slot (8-byte key + 4-byte value). The paper
// treats this as marginal overhead (§5).
func (g *GSketch) RouterBytes() int { return g.router.Bytes() }

// NumPartitions returns the number of localized sketches (excluding the
// outlier sketch).
func (g *GSketch) NumPartitions() int { return len(g.leaves) }

// Leaves returns the partition layout (copy; safe to retain).
func (g *GSketch) Leaves() []Leaf {
	out := make([]Leaf, len(g.leaves))
	copy(out, g.leaves)
	return out
}

// Order reports which scenario objective built the partitioning.
func (g *GSketch) Order() vstats.SortOrder { return g.order }

// PartitionOf returns the partition index a source vertex routes to, and
// whether it was present in the sample (false ⇒ outlier sketch).
func (g *GSketch) PartitionOf(src uint64) (int, bool) {
	i, ok := g.router.Get(src)
	return int(i), ok
}

// OutlierCount returns the stream volume absorbed by the outlier sketch.
func (g *GSketch) OutlierCount() int64 {
	if g.outlierWidth == 0 {
		return 0
	}
	return g.bank.Count(len(g.leaves))
}

// OutlierWidth returns the column count of the outlier sketch (0 when
// disabled).
func (g *GSketch) OutlierWidth() int { return g.outlierWidth }

// ErrorBound returns the per-query additive CountMin bound e·N_i/w_i of
// the sketch the source vertex routes to — the per-partition confidence
// interval discussed in §5 ("the number of edges assigned to each of the
// partitions is known in advance of query processing").
func (g *GSketch) ErrorBound(src uint64) float64 {
	shard := g.Route(src)
	return errorBound(g.bank.Count(shard), g.bank.Width(shard))
}

// Depth returns the shared sketch depth d.
func (g *GSketch) Depth() int { return g.cfg.Depth }

// TotalWidth returns the resolved total column budget (partitions +
// outlier).
func (g *GSketch) TotalWidth() int { return g.totalWidth }

var _ Estimator = (*GSketch)(nil)
