// Package core implements the paper's primary contribution: gSketch, a
// partitioned CountMin estimator for graph streams. A partitioning tree
// splits the width of a virtual global sketch into localized sketches by
// source vertex, minimizing the expected relative-error objective of Eq. 9
// (data sample only) or Eq. 11 (data + workload samples); a router maps
// vertices to their localized sketch; vertices unseen in the sample fall
// through to an outlier sketch. The GlobalSketch baseline of §3.2 is also
// provided for comparison.
package core

import (
	"errors"
	"fmt"
	"math"

	"github.com/graphstream/gsketch/internal/sketch"
)

// Defaults used when Config fields are zero.
const (
	// DefaultDepth is the number of sketch rows d. d = 5 gives the
	// per-query guarantee probability 1 - e^-5 ≈ 0.993 (δ ≈ 0.007).
	DefaultDepth = 5
	// DefaultOutlierFraction is the share of total width reserved for the
	// outlier sketch (§5: "a fixed portion of the original space").
	DefaultOutlierFraction = 0.10
	// DefaultMinWidth is w0, the minimum width below which a node is
	// materialized rather than split (§4.1, termination criterion 1).
	DefaultMinWidth = 64
	// DefaultCollisionC is C in (0,1): a node with Σd̃(m) ≤ C·width is
	// materialized because its per-cell collision probability is bounded
	// by C (Theorem 1; termination criterion 2).
	DefaultCollisionC = 0.5
)

// ErrConfig reports an unusable estimator configuration.
var ErrConfig = errors.New("core: invalid configuration")

// ErrEmptySample reports that gSketch construction was attempted without
// any usable data sample.
var ErrEmptySample = errors.New("core: data sample is empty")

// Config parameterizes construction of both GSketch and GlobalSketch. Both
// count in CountMin sketches — plain, or conservative-update with
// Conservative — so every answer carries CountMin's one-sided guarantee:
// never below the true frequency, and above it by at most e·N_i/w_i with
// probability 1-e^-d (§3.2, Theorem 1).
type Config struct {
	// TotalBytes is the memory budget for counter cells. Exactly one of
	// TotalBytes and TotalWidth must be positive.
	TotalBytes int
	// TotalWidth is the explicit total column budget (cells per row).
	TotalWidth int
	// Depth is the number of rows d shared by every sketch (default
	// DefaultDepth). The per-partition guarantee 1-e^-d is uniform because
	// partitioning divides width only (§4.1).
	Depth int
	// OutlierFraction is the share of width reserved for the outlier
	// sketch (default DefaultOutlierFraction). Set negative to disable the
	// outlier partition entirely (unseen vertices then share partition 0,
	// only sensible for closed vertex universes).
	OutlierFraction float64
	// MinWidth is the w0 termination threshold (default DefaultMinWidth).
	// Half of it is also the least width of a localized sketch: the tree
	// divides the partition width over its leaves in proportion to
	// √(F̃(S_i)·G(S_i)) above that floor.
	MinWidth int
	// CollisionC is the Theorem-1 constant C in (0,1) (default
	// DefaultCollisionC): a node whose distinct-edge load fits C times its
	// width is not split further.
	CollisionC float64
	// MaxPartitions caps the number of localized sketches; 0 means
	// unbounded (the tree then stops only via w0 / Theorem 1).
	MaxPartitions int
	// Conservative enables conservative update on every CountMin sketch.
	Conservative bool
	// Seed fixes all hash families and makes construction deterministic.
	Seed uint64
}

// withDefaults returns a copy with defaults applied.
func (c Config) withDefaults() Config {
	if c.Depth == 0 {
		c.Depth = DefaultDepth
	}
	if c.OutlierFraction == 0 {
		c.OutlierFraction = DefaultOutlierFraction
	}
	if c.MinWidth == 0 {
		c.MinWidth = DefaultMinWidth
	}
	if c.CollisionC == 0 {
		c.CollisionC = DefaultCollisionC
	}
	return c
}

// newSynopsis builds a GlobalSketch's CountMin.
func (c Config) newSynopsis(width int) (*sketch.CountMin, error) {
	cm, err := sketch.NewCountMin(width, c.Depth, c.Seed)
	if err != nil {
		return nil, err
	}
	cm.SetConservative(c.Conservative)
	return cm, nil
}

// totalWidth resolves the column budget from the configuration.
func (c Config) totalWidth() (int, error) {
	switch {
	case c.TotalWidth > 0 && c.TotalBytes > 0:
		return 0, fmt.Errorf("%w: set TotalBytes or TotalWidth, not both", ErrConfig)
	case c.TotalWidth > 0:
		return c.TotalWidth, nil
	case c.TotalBytes > 0:
		return sketch.WidthFromMemory(c.TotalBytes, c.Depth)
	default:
		return 0, fmt.Errorf("%w: no memory budget (TotalBytes or TotalWidth)", ErrConfig)
	}
}

// Validate checks the configuration after defaulting.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Depth < 1 {
		return fmt.Errorf("%w: depth %d", ErrConfig, c.Depth)
	}
	if _, err := c.totalWidth(); err != nil {
		return err
	}
	if c.OutlierFraction >= 1 {
		return fmt.Errorf("%w: outlier fraction %v must be < 1", ErrConfig, c.OutlierFraction)
	}
	if c.MinWidth < 2 {
		return fmt.Errorf("%w: min width %d must be ≥ 2", ErrConfig, c.MinWidth)
	}
	if !(c.CollisionC > 0 && c.CollisionC < 1) {
		return fmt.Errorf("%w: collision constant %v must be in (0,1)", ErrConfig, c.CollisionC)
	}
	if c.MaxPartitions < 0 {
		return fmt.Errorf("%w: negative partition cap", ErrConfig)
	}
	return nil
}

// DimsFromError mirrors the CountMin sizing of §3.2 for callers that think
// in (ε, δ) rather than bytes: w = ⌈e/ε⌉ columns, d = ⌈ln(1/δ)⌉ rows.
func DimsFromError(epsilon, delta float64) (width, depth int, err error) {
	return sketch.DimsFromError(epsilon, delta)
}

// errorBound returns the additive CountMin bound e·N/w.
func errorBound(n int64, width int) float64 {
	if width <= 0 {
		return math.Inf(1)
	}
	return math.E * float64(n) / float64(width)
}
