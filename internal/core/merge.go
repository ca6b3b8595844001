package core

import (
	"fmt"

	"github.com/graphstream/gsketch/internal/sketch"
)

// Exact generation merge. Two gSketches built from the same configuration
// and the same data sample lay out identically — BuildGSketch derives every
// partition's hash family deterministically from the master seed, so equal
// routers + equal widths + equal seeds mean every counter cell is addressed
// by the same hash in both sketches. CountMin counters are then additive
// cell-wise, and the merged sketch answers for the union stream with the
// combined ε·(N_a+N_b) bound. The compaction subsystem uses this as its
// lossless fast path and falls back to re-ingesting reservoirs when the
// layouts differ.

// ErrIncompatibleMerge reports a counter-wise merge refused because the two
// sketches do not share a hash layout (different partitioning, widths,
// depth, or seeds). Callers fall back to rebuild-and-reingest.
var ErrIncompatibleMerge = fmt.Errorf("core: gSketch layouts are not counter-mergeable")

// CanMerge reports whether other's counters can be folded into g cell-wise:
// same depth, same partition layout (leaf widths and router contents), same
// outlier width, and plain CountMin shards with identical hash seeds on
// both sides. A nil error means MergeFrom will succeed.
func (g *GSketch) CanMerge(other *GSketch) error {
	if g.cfg.Depth != other.cfg.Depth {
		return fmt.Errorf("%w: depth %d vs %d", ErrIncompatibleMerge, g.cfg.Depth, other.cfg.Depth)
	}
	if len(g.leaves) != len(other.leaves) {
		return fmt.Errorf("%w: %d vs %d partitions", ErrIncompatibleMerge, len(g.leaves), len(other.leaves))
	}
	if g.outlierWidth != other.outlierWidth {
		return fmt.Errorf("%w: outlier width %d vs %d", ErrIncompatibleMerge, g.outlierWidth, other.outlierWidth)
	}
	for shard := 0; shard < g.NumShards(); shard++ {
		if err := mergeablePair(g.bank.Sketch(shard), other.bank.Sketch(shard)); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrIncompatibleMerge, g.shardName(shard), err)
		}
	}
	if g.router.Len() != other.router.Len() {
		return fmt.Errorf("%w: router size %d vs %d", ErrIncompatibleMerge, g.router.Len(), other.router.Len())
	}
	routersEqual := true
	other.router.Range(func(vertex uint64, part int32) bool {
		p, ok := g.router.Get(vertex)
		if !ok || p != part {
			routersEqual = false
			return false
		}
		return true
	})
	if !routersEqual {
		return fmt.Errorf("%w: routers assign vertices differently", ErrIncompatibleMerge)
	}
	return nil
}

// shardName names a shard in error messages.
func (g *GSketch) shardName(shard int) string {
	if shard == len(g.leaves) {
		return "outlier"
	}
	return fmt.Sprintf("partition %d", shard)
}

// mergeablePair checks one shard pair has identical dimensions and seed
// and plain updates — the preconditions of sketch.CountMin.Merge.
func mergeablePair(a, b *sketch.CountMin) error {
	if a.Width() != b.Width() || a.Depth() != b.Depth() || a.Seed() != b.Seed() {
		return fmt.Errorf("hash families differ (%dx%d seed %d vs %dx%d seed %d)",
			a.Depth(), a.Width(), a.Seed(), b.Depth(), b.Width(), b.Seed())
	}
	if a.Conservative() || b.Conservative() {
		return fmt.Errorf("conservative-update sketches are not mergeable")
	}
	return nil
}

// MergeFrom folds other's counters into g cell-wise. On success g answers
// for the concatenation of both streams: estimates stay overestimates of
// the union stream and the additive bound becomes ε·(N_g+N_other) — exactly
// the bound the generation chain would have reported for the two sketches
// separately. other is not modified. On error g is unchanged.
func (g *GSketch) MergeFrom(other *GSketch) error {
	if err := g.CanMerge(other); err != nil {
		return err
	}
	for shard := 0; shard < g.NumShards(); shard++ {
		if err := g.bank.Sketch(shard).Merge(other.bank.Sketch(shard)); err != nil {
			return fmt.Errorf("core: merge %s: %w", g.shardName(shard), err)
		}
	}
	// Sample statistics add: the merged sketch describes the union sample.
	for i := range g.leaves {
		g.leaves[i].SumF += other.leaves[i].SumF
		g.leaves[i].SumD += other.leaves[i].SumD
	}
	g.addTotal(other.total.Load())
	return nil
}
