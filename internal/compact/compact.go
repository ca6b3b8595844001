// Package compact is the generation-lifecycle subsystem for adaptive
// chains: compaction and disk tiering.
//
// An adaptive chain freezes one generation per repartition. Without
// lifecycle management the chain grows monotonically: every query gathers
// across all generations, its bound widening with their count, memory
// never shrinks, and rotation hard-refuses at the generation cap. This package
// bounds all three:
//
//   - Compaction (Fold) merges the oldest K frozen generations into one —
//     cell-wise when their hash layouts match (lossless: CountMin counters
//     add, bounds stay ε·ΣN_i), else by re-partitioning from the segments'
//     retained reservoirs and replaying them at recorded volume. Fewer
//     generations also narrow the bound, which widens by g^(1/d) over g.
//
//   - Tiering (Segment.Spill) moves cold frozen generations to file-backed
//     segments, reloading lazily on query, so the hot head plus a bounded
//     resident set stays in RAM.
//
// Policy is the data of the compaction trigger: the engine's lifecycle
// goroutine evaluates it on the serving chain's State every Interval and
// folds while it fires. The chain mechanism lives in internal/adapt (it
// owns the locks); this package owns the segments, the merge math and the
// policy's data.
package compact

import "time"

// Policy parameterizes background compaction. A trigger set to zero is
// disabled; a Policy with no trigger set disables background compaction
// entirely (manual compaction keeps working).
type Policy struct {
	// MaxGenerations compacts when the chain length exceeds it. Set it
	// below the chain's hard MaxGenerations cap and rotation never refuses:
	// a chain under a policy also folds before a rotation at the cap.
	MaxGenerations int
	// MaxAge compacts when the oldest frozen generation has been frozen
	// longer than this.
	MaxAge time.Duration
	// MaxMemoryBytes compacts when the chain's resident counter footprint
	// exceeds it.
	MaxMemoryBytes int64
	// Fold is how many oldest generations one compaction folds (default 2,
	// minimum 2).
	Fold int
	// Interval is the background check period (default 30s).
	Interval time.Duration
}

// WithDefaults resolves the policy's zero values.
func (p Policy) WithDefaults() Policy {
	if p.Fold < 2 {
		p.Fold = 2
	}
	if p.Interval == 0 {
		p.Interval = 30 * time.Second
	}
	return p
}

// Enabled reports whether any background trigger is configured.
func (p Policy) Enabled() bool {
	return p.MaxGenerations > 0 || p.MaxAge > 0 || p.MaxMemoryBytes > 0
}

// State is the lifecycle snapshot a policy evaluates.
type State struct {
	// Generations is the chain length (head + frozen).
	Generations int
	// MemoryBytes is the resident counter footprint (spilled segments
	// excluded).
	MemoryBytes int64
	// OldestAge is how long the oldest frozen generation has been frozen
	// (zero when unknown or no frozen generations exist).
	OldestAge time.Duration
}

// Triggered reports whether the state crosses any configured trigger.
func (p Policy) Triggered(s State) bool {
	if p.MaxGenerations > 0 && s.Generations > p.MaxGenerations {
		return true
	}
	if p.MaxMemoryBytes > 0 && s.MemoryBytes > p.MaxMemoryBytes {
		return true
	}
	if p.MaxAge > 0 && s.OldestAge > p.MaxAge {
		return true
	}
	return false
}

// Result reports one compaction.
type Result struct {
	// Folded is the number of source generations merged away (0 = nothing
	// to do: fewer than two frozen generations).
	Folded int `json:"folded"`
	// Exact reports the lossless cell-wise path (vs re-ingest rebuild).
	Exact bool `json:"exact"`
	// Generations is the chain length after the compaction.
	Generations int `json:"generations"`
	// FreedBytes is the counter footprint removed (sources minus merged).
	FreedBytes int64 `json:"freed_bytes"`
	// Duration is the wall time of the fold (read + merge + install).
	Duration time.Duration `json:"-"`
}
