package gsketch

import (
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// Edge is one graph-stream element (x, y; t) with an optional frequency
// weight (0 counts as 1, the paper's default).
type Edge = stream.Edge

// Config parameterizes estimator construction. The zero value is not
// usable: set TotalBytes (or TotalWidth) and, for reproducibility, Seed.
// All other fields have sensible defaults.
type Config = core.Config

// Defaults re-exported from the core package.
const (
	// DefaultDepth is the sketch depth d used when Config.Depth is zero.
	DefaultDepth = core.DefaultDepth
	// DefaultOutlierFraction is the share of width reserved for the
	// outlier sketch when Config.OutlierFraction is zero.
	DefaultOutlierFraction = core.DefaultOutlierFraction
	// DefaultMinWidth is the partitioning threshold w0 used when
	// Config.MinWidth is zero.
	DefaultMinWidth = core.DefaultMinWidth
	// DefaultCollisionC is the Theorem-1 constant C used when
	// Config.CollisionC is zero.
	DefaultCollisionC = core.DefaultCollisionC
)

// Estimator is the batch surface GSketch, Concurrent and Chain share; the
// per-edge Update and EstimateEdge are GSketch's alone.
type Estimator = core.Estimator

// GSketch is the partitioned estimator — the paper's contribution. The
// Global Sketch baseline of §3.2 (WithGlobal) is a GSketch with no
// partitions, whose every answer comes from its outlier sketch.
type GSketch = core.GSketch

// Concurrent is the thread-safe GSketch wrapper: partition-sharded locking
// (the router is immutable, so each partition is an independent update
// domain).
type Concurrent = core.Concurrent

// Leaf describes one localized sketch of a partitioning.
type Leaf = core.Leaf

// Populate streams a slice of edges into an estimator in batches.
func Populate(est Estimator, edges []Edge) { core.Populate(est, edges) }

// IngestConfig parameterizes the ingest pipeline every engine owns, which
// WithIngest tunes; the zero value selects defaults (GOMAXPROCS workers,
// 1024-edge batches, 4×Workers queue depth).
type IngestConfig = ingest.Config

// ErrIngestClosed reports a push against a closed ingest pipeline.
var ErrIngestClosed = ingest.ErrClosed

// ErrIngestQueueFull reports that a non-blocking Engine.TryIngest could not
// enqueue because the pipeline is at capacity — the typed shed-load
// signal (retry later), as opposed to the hard failure ErrIngestClosed.
var ErrIngestQueueFull = ingest.ErrQueueFull

// Chain is a generation-chained estimator for adaptive repartitioning: one
// live head sketch absorbing the stream plus frozen prior generations
// still answering for the segments they saw. Updates go to the head;
// queries gather across every generation and combine soundly — estimates
// sum, per-generation ε·N_i bounds add, confidence combines by a union
// bound. Safe for concurrent use.
type Chain = adapt.Chain

// ChainConfig parameterizes a Chain (data-reservoir size and seed,
// generation cap). The zero value selects defaults.
type ChainConfig = adapt.ChainConfig

// RouteCounts is a snapshot of routed traffic per partition plus the
// outlier sketch — the raw drift signal adaptive repartitioning watches.
type RouteCounts = core.RouteCounts

// AdaptConfig parameterizes the adaptive repartitioning manager mounted by
// Open(..., WithAdaptive(...)): drift and outlier-share thresholds and
// minimum sample sizes. Rebuilds use the Open configuration, and the drift
// baseline is WithWorkloadSample's sample.
type AdaptConfig = adapt.ManagerConfig

// Drift is one evaluation of how far live traffic has moved from the
// workload the serving partitioning was optimized for.
type Drift = adapt.Drift

// RepartitionResult reports one completed rebuild + hot swap.
type RepartitionResult = adapt.RepartitionResult

// CompactionPolicy parameterizes background generation compaction
// (WithCompaction): the fold triggers — chain length, resident memory,
// oldest-generation age — plus the fold width and check interval.
type CompactionPolicy = compact.Policy

// CompactionResult reports one completed generation fold: how many source
// generations merged away, whether the merge was the lossless cell-wise
// path, and the chain length and freed bytes after.
type CompactionResult = compact.Result

// ErrMaxGenerations reports a repartition refused because the chain is at
// its configured generation cap. Mount a CompactionPolicy (WithCompaction)
// and the chain folds old generations before a rotation at the cap; it
// still refuses when the fold is refused (compact.ErrUnfoldable, which the
// error wraps the first time the fold is refused at that generation
// count).
var ErrMaxGenerations = adapt.ErrMaxGenerations

// ErrEmptyReservoir reports a rebuild refused because no stream has been
// sampled since the last swap — ingest more, then repartition.
var ErrEmptyReservoir = adapt.ErrEmptyReservoir

// EdgeQuery asks for the accumulated frequency of one directed edge. It is
// both the unit of the batched estimator read path (EstimateBatch) and a
// Query variant for Answer — one type end to end, so batched reads cross
// the facade without a conversion copy.
type EdgeQuery = core.EdgeQuery

// SubgraphQuery asks for the aggregate frequency behaviour of a bag of
// edges.
type SubgraphQuery = query.SubgraphQuery

// NodeQuery asks for the aggregate frequency behaviour of one source
// vertex's edges toward an explicit destination set. All constituents
// route to the same localized sketch, so the answer carries that single
// partition's guarantee.
type NodeQuery = query.NodeQuery

// Query is the sealed sum of the supported query kinds: EdgeQuery,
// SubgraphQuery and NodeQuery. Resolve one with Answer or a batch with
// AnswerBatch.
type Query = query.Query

// Result is one batched edge-query answer: the point estimate plus the
// answering partition, its ε·N_i error bound at confidence 1-δ, and a
// snapshot of the stream total.
type Result = core.Result

// NoPartition is the Result.Partition value of answers that did not come
// from a localized partition: outlier traffic, which is every answer of the
// Global Sketch.
const NoPartition = core.NoPartition

// Response is a resolved Query: the aggregate value, the per-edge Results
// it folded, and the combined error bound and confidence.
type Response = query.Response

// Aggregate is the Γ(·) of an aggregate subgraph or node query.
type Aggregate = query.Aggregate

// Supported aggregates.
const (
	Sum     = query.Sum
	Min     = query.Min
	Max     = query.Max
	Average = query.Average
	Count   = query.Count
)

// EstimateBatch answers a batch of edge queries in one routed pass over
// the estimator, returning one bound-carrying Result per query in input
// order. Point estimates are identical to GSketch.EstimateEdge; routing,
// locking (under Concurrent) and per-partition counter passes are
// amortized across the batch.
func EstimateBatch(est Estimator, qs []EdgeQuery) []Result {
	return est.EstimateBatch(qs)
}

// Answer resolves any Query — edge, subgraph or node — against an
// estimator with a single batched pass and returns the value together with
// its combined error bound and confidence.
func Answer(est Estimator, q Query) Response {
	return query.Answer(est, q)
}

// AnswerBatch resolves a batch of heterogeneous queries with one routed
// estimator pass, returning Responses in input order.
func AnswerBatch(est Estimator, qs []Query) []Response {
	return query.AnswerBatch(est, qs)
}

// Reservoir maintains a uniform fixed-capacity sample of an unbounded
// stream (Vitter's Algorithm R) — the standard way to obtain the data
// sample WithSample needs.
type Reservoir = stream.Reservoir

// NewReservoir returns a reservoir of the given capacity, deterministic
// under seed.
func NewReservoir(capacity int, seed uint64) *Reservoir {
	return stream.NewReservoir(capacity, seed)
}

// Interner maps string vertex labels to dense uint64 ids and back.
type Interner = stream.Interner

// NewInterner returns an empty interner.
func NewInterner() *Interner { return stream.NewInterner() }

// WindowConfig parameterizes WithWindows: window k covers stream times
// [k·Span, (k+1)·Span), and is partitioned from a reservoir of SampleSize
// edges sampled over the window before it. Both must be positive.
type WindowConfig struct {
	Span       int64
	SampleSize int
}
