package compact

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// ErrUnfoldable reports a fold refused because the segments' counters
// cannot be merged cell-wise and there is nothing to rebuild them from: a
// segment restored from a snapshot keeps no sample. Retrying cannot help
// until the segments change.
var ErrUnfoldable = errors.New("compact: generations cannot be folded")

// Fold merges k frozen segments (oldest first) into one new frozen segment
// covering their union stream. Two paths:
//
//   - Exact: when every segment shares the oldest one's hash layout (same
//     router, widths, depth, seeds — the shape produced by rotations built
//     from identical samples and configs, and by prior compactions), the
//     CountMin counters add cell-wise. The merged generation answers with
//     estimates identical to the sum the chain gather would have produced,
//     and the additive bound ε·ΣN_i is exactly the sum of the per-segment
//     bounds.
//
//   - Re-ingest: when layouts differ, a fresh gSketch is partitioned from
//     the segments' combined retained reservoirs (the §4.1/§4.2 build) and
//     each segment's reservoir is replayed into it with weights scaled so
//     every segment contributes exactly its recorded stream volume. When a
//     reservoir retained its whole segment (seen ≤ capacity) the replay is
//     a lossless re-run of that slice; an undersampled reservoir yields the
//     sample's frequency shape at full volume — an approximation, which is
//     why the exact path is preferred whenever the layouts allow it.
//
// Either way the merged segment's stream total equals the sum of the
// sources', so chain-wide Count is conserved, and the post-compaction chain
// has fewer generations to split its δ across.
func Fold(segs []*Segment, cfg core.Config, workload []stream.Edge, sampleCap int) (*Segment, bool, error) {
	if len(segs) < 2 {
		return nil, false, fmt.Errorf("compact: fold needs at least 2 segments, got %d", len(segs))
	}
	meta := core.GenerationMeta{BuiltAt: segs[0].Meta().BuiltAt}
	var frozenAt int64
	var totalCount int64
	for _, s := range segs {
		meta.CompactedFrom += s.Meta().CompactedFrom
		if fa := s.FrozenAt(); fa > frozenAt {
			frozenAt = fa
		}
		totalCount = sketch.AddVolume(totalCount, s.Count())
	}

	g, exact, err := foldSketch(segs, cfg, workload)
	if err != nil {
		return nil, false, err
	}
	if got := g.Count(); got != totalCount {
		return nil, false, fmt.Errorf("compact: folded volume %d does not match source volume %d", got, totalCount)
	}

	merged := NewSegment(g, meta)
	sample, seen := combineSamples(segs, sampleCap)
	merged.Freeze(frozenAt, sample, seen)
	return merged, exact, nil
}

// foldSketch produces the merged sketch, preferring the exact path. It
// reads the sources where they lie (see Segment.frozenSketch) and copies
// none of them.
func foldSketch(segs []*Segment, cfg core.Config, workload []stream.Edge) (*core.GSketch, bool, error) {
	g, err := foldExact(segs)
	if g != nil || err != nil {
		return g, g != nil, err
	}

	// Re-ingest path: rebuild from the combined retained reservoirs, then
	// replay each segment's reservoir scaled to its recorded volume.
	var combined []stream.Edge
	for i, s := range segs {
		sample, _ := s.Sample()
		if len(sample) == 0 && s.Count() > 0 {
			return nil, false, fmt.Errorf("%w: segment %d has stream volume %d but no retained sample (layouts are not counter-mergeable and there is nothing to re-ingest; restored chains compact only via the exact path)", ErrUnfoldable, i, s.Count())
		}
		combined = append(combined, sample...)
	}
	if len(combined) == 0 {
		return nil, false, fmt.Errorf("compact: no retained samples to rebuild from")
	}
	g, err = core.BuildGSketch(cfg, combined, workload)
	if err != nil {
		return nil, false, fmt.Errorf("compact: rebuild for re-ingest: %w", err)
	}
	for _, s := range segs {
		sample, _ := s.Sample()
		core.Populate(g, scaledReplay(sample, s.Count()))
	}
	return g, false, nil
}

// foldExact adds every segment's counters into one sketch of the oldest
// segment's layout, or returns nil when a segment's layout differs. The
// result is the oldest segment's private copy: the one read from its spill
// file, or a clone of the resident sketch, made once the first merge
// partner is known.
func foldExact(segs []*Segment) (*core.GSketch, error) {
	base, private, err := segs[0].frozenSketch()
	if err != nil {
		return nil, err
	}
	for i, s := range segs[1:] {
		g, _, err := s.frozenSketch()
		if err != nil {
			return nil, err
		}
		if base.CanMerge(g) != nil {
			return nil, nil
		}
		if !private {
			base, private = base.Clone(), true
		}
		if err := base.MergeFrom(g); err != nil {
			return nil, fmt.Errorf("compact: exact merge of segment %d: %w", i+1, err)
		}
	}
	return base, nil
}

// scaledReplay returns sample rescaled so its total weight is exactly
// target: each edge's weight w becomes ⌊w·target/Σw⌋, computed exactly, and
// the rounding remainder — less than one unit per edge — goes one unit at a
// time to the leading edges, so no volume is created or lost. Σw and the
// replayed total saturate at MaxInt64 as every stream volume does, so a
// saturated segment replays its sample to a saturated total. A reservoir
// that retained its entire segment scales by 1 — a lossless replay.
func scaledReplay(sample []stream.Edge, target int64) []stream.Edge {
	if target <= 0 || len(sample) == 0 {
		return nil
	}
	var sw int64
	for _, e := range sample {
		sw = sketch.AddVolume(sw, max(e.Weight, 1))
	}
	out := make([]stream.Edge, len(sample))
	var acc int64
	for i, e := range sample {
		// w ≤ sw, so the quotient ⌊w·target/sw⌋ ≤ target fits.
		hi, lo := bits.Mul64(uint64(max(e.Weight, 1)), uint64(target))
		q, _ := bits.Div64(hi, lo, uint64(sw))
		scaled := min(int64(q), target-acc)
		out[i] = e
		out[i].Weight = scaled
		acc += scaled
	}
	for i := range out {
		if acc == target {
			break
		}
		out[i].Weight++
		acc++
	}
	// Drop zero-weight survivors (their mass moved to the remainder).
	kept := out[:0]
	for _, e := range out {
		if e.Weight > 0 {
			kept = append(kept, e)
		}
	}
	return kept
}

// combineSamples concatenates the segments' retained reservoirs (capped by
// uniform stride at 2×cap so repeated compaction cannot grow retained
// memory without bound) so the merged segment can itself re-ingest later.
func combineSamples(segs []*Segment, sampleCap int) ([]stream.Edge, int64) {
	var combined []stream.Edge
	var seen int64
	for _, s := range segs {
		sample, sn := s.Sample()
		combined = append(combined, sample...)
		seen += sn
	}
	limit := 2 * sampleCap
	if sampleCap > 0 && len(combined) > limit {
		stride := float64(len(combined)) / float64(limit)
		kept := make([]stream.Edge, 0, limit)
		for i := 0; i < limit; i++ {
			kept = append(kept, combined[int(float64(i)*stride)])
		}
		combined = kept
	}
	return combined, seen
}
