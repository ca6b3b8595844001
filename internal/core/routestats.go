package core

import "sync/atomic"

// Routing observability: per-shard traffic counters split by direction.
// They are the drift signal of the adaptive repartitioning subsystem — a
// partitioning built for yesterday's workload shows up here as a growing
// outlier share — and are cheap enough to keep always-on: a routed batch
// folds in one atomic add per touched shard (grouping.layout), and the
// single-edge paths one add per call.

// RouteCounts is a snapshot of routed traffic per shard in one direction
// (reads or writes).
type RouteCounts struct {
	// Partitions holds the per-partition routed hit counts, indexed like
	// Leaves().
	Partitions []int64
	// Outlier counts traffic routed to the outlier sketch (vertices absent
	// from the partitioning sample). Always 0 when the outlier sketch is
	// disabled — such traffic falls through to partition 0 and cannot be
	// told apart.
	Outlier int64
	// Total is the summed traffic across partitions and outlier.
	Total int64
}

// OutlierShare returns the fraction of routed traffic the outlier sketch
// absorbed, or 0 when nothing was routed.
func (rc RouteCounts) OutlierShare() float64 {
	if rc.Total == 0 {
		return 0
	}
	return float64(rc.Outlier) / float64(rc.Total)
}

// initRouteStats sizes the hit counters; called once at construction and
// deserialization, before the sketch is shared.
func (g *GSketch) initRouteStats() {
	n := g.NumShards()
	g.writeHits = make([]atomic.Int64, n)
	g.readHits = make([]atomic.Int64, n)
}

// snapshotHits copies a direction's counters into a RouteCounts.
func (g *GSketch) snapshotHits(hits []atomic.Int64) RouteCounts {
	rc := RouteCounts{Partitions: make([]int64, len(g.leaves))}
	for shard := range hits {
		n := hits[shard].Load()
		if shard == len(g.leaves) {
			rc.Outlier = n
		} else {
			rc.Partitions[shard] = n
		}
		rc.Total += n
	}
	return rc
}

// WriteRouteCounts snapshots the routed write (Update/UpdateBatch) traffic
// per shard since construction. Safe to call concurrently with writers.
func (g *GSketch) WriteRouteCounts() RouteCounts { return g.snapshotHits(g.writeHits) }

// ReadRouteCounts snapshots the routed query (EstimateEdge/EstimateBatch)
// traffic per shard since construction. Safe to call concurrently with
// readers.
func (g *GSketch) ReadRouteCounts() RouteCounts { return g.snapshotHits(g.readHits) }

// WriteRouteCounts forwards to the wrapped gSketch's counters (which are
// atomic, so no stripe lock is needed).
func (c *Concurrent) WriteRouteCounts() RouteCounts { return c.g.WriteRouteCounts() }

// ReadRouteCounts is the read-side counterpart of WriteRouteCounts.
func (c *Concurrent) ReadRouteCounts() RouteCounts { return c.g.ReadRouteCounts() }

// RouteStatsSource is implemented by estimators that expose routed-traffic
// counters (GSketch, Concurrent, and the adapt chain's head); callers that
// may hold any Estimator assert against it.
type RouteStatsSource interface {
	WriteRouteCounts() RouteCounts
	ReadRouteCounts() RouteCounts
}

var (
	_ RouteStatsSource = (*GSketch)(nil)
	_ RouteStatsSource = (*Concurrent)(nil)
)
