package experiments

import (
	"fmt"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// SweepPoint is the measurement at one memory size: both estimators'
// accuracy plus construction and query timing — the raw material for
// Figures 4, 5, 7, 8, 13 and 14.
type SweepPoint struct {
	Bytes int

	Global  query.Accuracy
	GSketch query.Accuracy

	// Construction times (Figure 13): global allocates only; gSketch
	// additionally partitions the sample — both as in the paper's Tc.
	TcGlobal  time.Duration
	TcGSketch time.Duration

	// Tp: wall time to answer the full query batch (Figure 14).
	TpGlobal  time.Duration
	TpGSketch time.Duration

	Partitions int
}

// EdgeSweepOptions configure RunEdgeSweep.
type EdgeSweepOptions struct {
	// WithWorkload selects scenario B: a Zipf workload sample steers
	// partitioning and queries are Zipf-skewed with the same Alpha.
	WithWorkload bool
	// Alpha is the Zipf skewness for workload and queries (§6.4; ignored
	// in scenario A).
	Alpha float64
	// G0 is the effectiveness threshold (0 → query.DefaultG0).
	G0 float64
	// MemoryGrid overrides the dataset grid when non-nil.
	MemoryGrid []int
}

func (o EdgeSweepOptions) g0() float64 {
	if o.G0 == 0 {
		return query.DefaultG0
	}
	return o.G0
}

// edgeQuerySet builds the query set for a scenario.
func edgeQuerySet(ds *Dataset, o EdgeSweepOptions) []query.EdgeQuery {
	if o.WithWorkload {
		return query.ZipfEdgeQueries(ds.Exact, ds.QuerySize, o.Alpha, ds.Seed+10, ds.Seed+11)
	}
	return query.UniformEdgeQueries(ds.Exact, ds.QuerySize, ds.Seed+12)
}

// workloadSample builds the scenario-B workload sample (same popularity
// permutation as the queries, independent draws).
func workloadSample(ds *Dataset, o EdgeSweepOptions) []stream.Edge {
	if !o.WithWorkload {
		return nil
	}
	return query.ZipfWorkloadSample(ds.Exact, ds.WorkloadSize, o.Alpha, ds.Seed+10, ds.Seed+13)
}

// RunEdgeSweep measures Global Sketch vs gSketch over the dataset's memory
// grid for edge queries.
func RunEdgeSweep(ds *Dataset, o EdgeSweepOptions) ([]SweepPoint, error) {
	queries := edgeQuerySet(ds, o)
	workload := workloadSample(ds, o)
	grid := ds.MemoryGrid
	if o.MemoryGrid != nil {
		grid = o.MemoryGrid
	}

	points := make([]SweepPoint, 0, len(grid))
	for _, bytes := range grid {
		pt, err := measurePoint(ds, bytes, workload, queries, o.g0())
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// measurePoint builds, populates, times and evaluates both estimators at
// one memory size.
func measurePoint(ds *Dataset, bytes int, workload []stream.Edge, queries []query.EdgeQuery, g0 float64) (SweepPoint, error) {
	pt := SweepPoint{Bytes: bytes}

	cfg := core.Config{TotalBytes: bytes, Seed: ds.Seed}

	t0 := time.Now()
	global, err := core.BuildGlobalSketch(cfg)
	if err != nil {
		return pt, fmt.Errorf("experiments: %s/%s global: %w", ds.Name, fmtBytes(bytes), err)
	}
	pt.TcGlobal = time.Since(t0)

	t0 = time.Now()
	gsk, err := core.BuildGSketch(cfg, ds.DataSample, workload)
	if err != nil {
		return pt, fmt.Errorf("experiments: %s/%s gsketch: %w", ds.Name, fmtBytes(bytes), err)
	}
	pt.TcGSketch = time.Since(t0)
	pt.Partitions = gsk.NumPartitions()

	core.Populate(global, ds.Edges)
	core.Populate(gsk, ds.Edges)

	pt.TpGlobal = timeQueries(global, queries)
	pt.TpGSketch = timeQueries(gsk, queries)

	pt.Global = query.EvaluateEdgeQueries(global, ds.Exact, queries, g0)
	pt.GSketch = query.EvaluateEdgeQueries(gsk, ds.Exact, queries, g0)
	return pt, nil
}

// timeQueries measures the wall time of the paper's per-query loop.
func timeQueries(est *core.GSketch, queries []query.EdgeQuery) time.Duration {
	t0 := time.Now()
	var sink int64
	for _, q := range queries {
		sink += est.EstimateEdge(q.Src, q.Dst)
	}
	_ = sink
	return time.Since(t0)
}

// SubgraphSweepPoint is the per-memory measurement for subgraph queries
// (Figures 6 and 9, plus the Qg timing series of Figure 14a).
type SubgraphSweepPoint struct {
	Bytes      int
	Global     query.Accuracy
	GSketch    query.Accuracy
	TpGlobal   time.Duration
	TpGSketch  time.Duration
	Partitions int
}

// subgraphConfig is the subgraph query process of a scenario: BFS-grown,
// fixed edges per subgraph, Γ = SUM, seeds Zipf-skewed in scenario B.
func subgraphConfig(ds *Dataset, o EdgeSweepOptions) query.SubgraphConfig {
	scfg := query.SubgraphConfig{
		Count:    ds.QuerySize,
		EdgesPer: ds.SubgraphEdges,
		Agg:      query.Sum,
		Seed:     ds.Seed + 20,
	}
	if o.WithWorkload {
		scfg.ZipfAlpha = o.Alpha
	}
	return scfg
}

// subgraphWorkloadSample builds the scenario-B workload sample of the
// subgraph figures from their own query process (§6.4 samples the query
// log): the queries' seed permutation, independent draws.
func subgraphWorkloadSample(ds *Dataset, o EdgeSweepOptions) []stream.Edge {
	if !o.WithWorkload {
		return nil
	}
	return query.SubgraphWorkloadSample(ds.Exact, ds.WorkloadSize, subgraphConfig(ds, o), ds.Seed+23)
}

// RunSubgraphSweep measures both estimators on aggregate subgraph queries
// (Γ = SUM, BFS-grown, fixed edges per subgraph).
func RunSubgraphSweep(ds *Dataset, o EdgeSweepOptions) ([]SubgraphSweepPoint, error) {
	queries := query.BFSSubgraphQueries(ds.Exact, subgraphConfig(ds, o))
	workload := subgraphWorkloadSample(ds, o)
	grid := ds.MemoryGrid
	if o.MemoryGrid != nil {
		grid = o.MemoryGrid
	}

	points := make([]SubgraphSweepPoint, 0, len(grid))
	for _, bytes := range grid {
		cfg := core.Config{TotalBytes: bytes, Seed: ds.Seed}
		global, err := core.BuildGlobalSketch(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s global: %w", ds.Name, fmtBytes(bytes), err)
		}
		gsk, err := core.BuildGSketch(cfg, ds.DataSample, workload)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s/%s gsketch: %w", ds.Name, fmtBytes(bytes), err)
		}
		core.Populate(global, ds.Edges)
		core.Populate(gsk, ds.Edges)

		pt := SubgraphSweepPoint{Bytes: bytes, Partitions: gsk.NumPartitions()}
		pt.TpGlobal = timeSubgraphQueries(global, queries)
		pt.TpGSketch = timeSubgraphQueries(gsk, queries)
		pt.Global = query.EvaluateSubgraphQueries(global, ds.Exact, queries, o.g0())
		pt.GSketch = query.EvaluateSubgraphQueries(gsk, ds.Exact, queries, o.g0())
		points = append(points, pt)
	}
	return points, nil
}

func timeSubgraphQueries(est core.Estimator, queries []query.SubgraphQuery) time.Duration {
	t0 := time.Now()
	var sink float64
	for _, q := range queries {
		sink += query.Answer(est, q).Value
	}
	_ = sink
	return time.Since(t0)
}

// AlphaPoint is the measurement at one Zipf skewness (Figures 10–12).
type AlphaPoint struct {
	Alpha   float64
	Global  query.Accuracy
	GSketch query.Accuracy
}

// RunAlphaSweep fixes memory at the dataset's FixedMemory and sweeps the
// workload skewness α, rebuilding the gSketch partitioning (its workload
// sample changes with α) and regenerating the Zipf query set per point.
func RunAlphaSweep(ds *Dataset, alphas []float64, g0 float64, subgraph bool) ([]AlphaPoint, error) {
	if g0 == 0 {
		g0 = query.DefaultG0
	}
	cfg := core.Config{TotalBytes: ds.FixedMemory, Seed: ds.Seed}
	workload := workloadSample
	if subgraph {
		workload = subgraphWorkloadSample
	}
	points := make([]AlphaPoint, 0, len(alphas))
	for _, alpha := range alphas {
		o := EdgeSweepOptions{WithWorkload: true, Alpha: alpha, G0: g0}
		global, err := core.BuildGlobalSketch(cfg)
		if err != nil {
			return nil, err
		}
		gsk, err := core.BuildGSketch(cfg, ds.DataSample, workload(ds, o))
		if err != nil {
			return nil, err
		}
		core.Populate(global, ds.Edges)
		core.Populate(gsk, ds.Edges)

		pt := AlphaPoint{Alpha: alpha}
		if subgraph {
			queries := query.BFSSubgraphQueries(ds.Exact, subgraphConfig(ds, o))
			pt.Global = query.EvaluateSubgraphQueries(global, ds.Exact, queries, g0)
			pt.GSketch = query.EvaluateSubgraphQueries(gsk, ds.Exact, queries, g0)
		} else {
			queries := edgeQuerySet(ds, o)
			pt.Global = query.EvaluateEdgeQueries(global, ds.Exact, queries, g0)
			pt.GSketch = query.EvaluateEdgeQueries(gsk, ds.Exact, queries, g0)
		}
		points = append(points, pt)
	}
	return points, nil
}

// OutlierPoint is the per-memory Table-1 measurement: overall gSketch ARE
// vs the ARE of only those queries answered by the outlier sketch.
type OutlierPoint struct {
	Bytes          int
	Overall        query.Accuracy
	Outlier        query.Accuracy
	OutlierQueries int
}

// RunOutlierSweep reproduces Table 1 on a dataset (the paper uses
// GTGraph): the estimation accuracy of the outlier sketch compared with
// gSketch overall, across the memory grid.
func RunOutlierSweep(ds *Dataset, g0 float64) ([]OutlierPoint, error) {
	if g0 == 0 {
		g0 = query.DefaultG0
	}
	queries := query.UniformEdgeQueries(ds.Exact, ds.QuerySize, ds.Seed+12)
	points := make([]OutlierPoint, 0, len(ds.MemoryGrid))
	for _, bytes := range ds.MemoryGrid {
		cfg := core.Config{TotalBytes: bytes, Seed: ds.Seed}
		gsk, err := core.BuildGSketch(cfg, ds.DataSample, nil)
		if err != nil {
			return nil, err
		}
		core.Populate(gsk, ds.Edges)

		isOutlier := func(q query.EdgeQuery) bool {
			_, sampled := gsk.PartitionOf(q.Src)
			return !sampled
		}
		pt := OutlierPoint{Bytes: bytes}
		pt.Overall = query.EvaluateEdgeQueries(gsk, ds.Exact, queries, g0)
		pt.Outlier = query.EvaluateEdgeQueriesFiltered(gsk, ds.Exact, queries, g0, isOutlier)
		pt.OutlierQueries = pt.Outlier.Total
		points = append(points, pt)
	}
	return points, nil
}
