// Package compact is the generation-lifecycle subsystem for adaptive
// chains: background compaction, disk tiering, and age-decay weighting.
//
// An adaptive chain freezes one generation per repartition. Without
// lifecycle management the chain grows monotonically: every query gathers
// across all generations with a union-bound confidence, memory never
// shrinks, and rotation hard-refuses at the generation cap. This package
// bounds all three:
//
//   - Compaction (Fold) merges the oldest K frozen generations into one —
//     cell-wise when their hash layouts match (lossless: CountMin counters
//     add, bounds stay ε·ΣN_i), else by re-partitioning from the segments'
//     retained reservoirs and replaying them at recorded volume. Fewer
//     generations also tightens the union bound.
//
//   - Tiering (Segment.Spill) moves cold frozen generations to file-backed
//     segments, reloading lazily on query, so the hot head plus a bounded
//     resident set stays in RAM.
//
//   - Decay is applied by the chain at gather time (see
//     query.AccumulateResultsWeighted): a frozen generation's contribution
//     scales by 2^(-age/halfLife) so ancient traffic stops dominating.
//
// The Manager runs the policy: a periodic check that compacts when the
// generation count, resident memory, or oldest-generation age crosses its
// trigger. The chain mechanism lives in internal/adapt (it owns the locks);
// this package owns the segments, the merge math, and the policy loop.
package compact

import (
	"sync/atomic"
	"time"
)

// Policy parameterizes background compaction. A trigger set to zero is
// disabled; a Policy with no trigger set disables background compaction
// entirely (manual compaction keeps working).
type Policy struct {
	// MaxGenerations compacts when the chain length exceeds it. Set it
	// below the chain's hard MaxGenerations cap and rotation never refuses:
	// the adapt manager also compacts on demand before a rotation that
	// would hit the cap.
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

// Target is the chain surface the Manager drives — implemented by
// adapt.Chain via the engine's lifecycle adapter.
type Target interface {
	// LifecycleState snapshots the policy inputs.
	LifecycleState(now time.Time) State
	// Compact folds the oldest k frozen generations into one.
	Compact(k int) (Result, error)
	// EnforceResidency spills cold frozen generations past the resident
	// cap, returning how many were spilled.
	EnforceResidency() (int, error)
}

// Manager runs the compaction policy against a target on a fixed interval.
// It is deliberately thin: the chain owns all locking, the manager only
// decides when.
type Manager struct {
	policy Policy
	target Target
	now    func() time.Time
	onErr  func(error)

	compactions atomic.Int64
}

// NewManager builds a policy manager. now defaults to time.Now; onErr may
// be nil (errors are dropped — the next tick retries).
func NewManager(target Target, policy Policy, now func() time.Time, onErr func(error)) *Manager {
	if now == nil {
		now = time.Now
	}
	return &Manager{policy: policy.WithDefaults(), target: target, now: now, onErr: onErr}
}

// Policy returns the resolved policy.
func (m *Manager) Policy() Policy { return m.policy }

// Compactions returns how many compactions this manager triggered.
func (m *Manager) Compactions() int64 { return m.compactions.Load() }

// CheckOnce evaluates the policy and compacts at most once if triggered.
// It returns the compaction result, or nil when the policy did not fire
// (or fired with nothing to fold).
func (m *Manager) CheckOnce() (*Result, error) {
	if !m.policy.Enabled() {
		return nil, nil
	}
	st := m.target.LifecycleState(m.now())
	if !m.policy.Triggered(st) {
		// Residency is enforced even when no compaction fires: cold
		// generations keep spilling as they age out of the access window.
		if _, err := m.target.EnforceResidency(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	res, err := m.target.Compact(m.policy.Fold)
	if err != nil {
		return nil, err
	}
	if res.Folded > 0 {
		m.compactions.Add(1)
	}
	return &res, nil
}

// Run evaluates the policy every Interval until stop closes. Each tick
// compacts repeatedly until the policy stops triggering, so a burst of
// rotations converges in one tick.
func (m *Manager) Run(stop <-chan struct{}) {
	t := time.NewTicker(m.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for i := 0; i < 8; i++ { // bounded convergence per tick
				res, err := m.CheckOnce()
				if err != nil {
					if m.onErr != nil {
						m.onErr(err)
					}
					break
				}
				if res == nil || res.Folded == 0 {
					break
				}
			}
		}
	}
}
