package core

import (
	"math"
	"slices"
)

// EdgeQuery identifies one directed edge whose accumulated frequency is
// requested. It is the unit of the batched read path: a slice of them is
// answered in one routed pass by Estimator.EstimateBatch.
type EdgeQuery struct {
	Src, Dst uint64
}

// NoPartition is the Result.Partition value of answers that did not come
// from a localized partition: outlier-sketch answers, which is every answer
// of the Global Sketch (BuildGlobalSketch).
const NoPartition = -1

// Result is one batched query answer: the point estimate plus the
// provenance and accuracy guarantee of the sketch that produced it. It
// surfaces per answer what Theorem 1 / §3.2 of the paper prove per
// localized sketch — an additive (ε, δ) guarantee whose ε·N_i term shrinks
// with the answering partition's local stream volume, not the global one.
type Result struct {
	// Estimate is the point estimate f̃ of the queried edge's frequency.
	Estimate int64
	// Partition is the index of the localized sketch that answered, or
	// NoPartition when the outlier sketch answered.
	Partition int
	// Outlier reports that the outlier sketch answered (the source vertex
	// was absent from the partitioning sample).
	Outlier bool
	// ErrorBound is the additive CountMin bound e·N_i/w_i of the answering
	// sketch: with probability Confidence, the true frequency lies in
	// [Estimate - ErrorBound, Estimate] (CountMin never underestimates).
	ErrorBound float64
	// Confidence is 1-δ = 1-e^{-d} for the shared sketch depth d.
	Confidence float64
	// StreamTotal is a snapshot of the total stream volume N folded into
	// the estimator when the batch was answered.
	StreamTotal int64
}

// confidence returns the per-query guarantee probability 1-e^{-d} of a
// depth-d sketch.
func confidence(depth int) float64 { return 1 - math.Exp(-float64(depth)) }

// estimateChunk bounds the slice of a query batch that is routed and
// answered at once, so the grouping's buffers (shards, keys, values) stay
// cache-resident alongside the counters being probed instead of growing
// with the caller's batch and evicting them — the read-side analogue of
// populateChunk.
const estimateChunk = 2048

// EstimateBatch answers a batch of edge queries through the routed-batch
// grouping: each chunk is routed in input order (one blocked pass over the
// flat router), then the sketch bank answers the whole chunk in one
// EstimateRouted call and the touched partitions' ε·N_i bounds are read
// from its volume table. Results are returned in input order and carry the
// answering partition, its bound at confidence 1-e^{-d}, and a snapshot of
// the stream total. Estimates are identical to per-edge EstimateEdge.
func (g *GSketch) EstimateBatch(qs []EdgeQuery) []Result {
	out := make([]Result, len(qs))
	gr := g.batchScratch()
	total := g.total.Load()
	conf := confidence(g.cfg.Depth)
	for lo := 0; lo < len(qs); lo += estimateChunk {
		hi := min(lo+estimateChunk, len(qs))
		gr.routeQueries(g, qs[lo:hi])
		gr.estimate(g)
		gr.assemble(g, out[lo:hi], conf, total)
	}
	return out
}

// EstimateBatch answers a batch of edge queries under the wrapper's
// synchronization, in a result slice of its own: AppendEstimates for a
// caller without a buffer to reuse.
func (c *Concurrent) EstimateBatch(qs []EdgeQuery) []Result {
	return c.AppendEstimates(make([]Result, 0, len(qs)), qs)
}

// AppendEstimates answers a batch of edge queries under the wrapper's
// synchronization, appending one Result per query to dst in input order; a
// caller that hands the same buffer back batch after batch makes the read
// path allocation-free. Each chunk is routed lock-free
// in input order, then every stripe it touches is read-locked once, in
// ascending stripe order, around one kernel call over the whole chunk and
// the read of the touched partitions' local volumes N_i — one consistent
// snapshot per partition. Lock traffic is bounded by
// stripes × ⌈batch/estimateChunk⌉, a one-query batch takes one lock, and
// the sweep into dst runs lock-free. Readers proceed beside writers on
// other stripes.
func (c *Concurrent) AppendEstimates(dst []Result, qs []EdgeQuery) []Result {
	base := len(dst)
	dst = slices.Grow(dst, len(qs))[:base+len(qs)]
	out := dst[base:]
	gr := c.pool.Get().(*grouping)
	total := c.g.Count()
	conf := confidence(c.g.cfg.Depth)
	for lo := 0; lo < len(qs); lo += estimateChunk {
		hi := min(lo+estimateChunk, len(qs))
		gr.routeQueries(c.g, qs[lo:hi])
		set := c.rlock(gr.touched)
		gr.estimate(c.g)
		c.runlock(set)
		gr.assemble(c.g, out[lo:hi], conf, total)
	}
	c.pool.Put(gr)
	return dst
}
