// Package adapt is the online repartitioning subsystem: it keeps the
// paper's workload-optimized partitioning (§4.2) good as the stream and the
// query workload drift, without ever forgetting the stream already seen.
//
// gSketch builds its partitioning once, offline, from a data sample and a
// query-workload sample. A long-lived server accumulates both continuously
// — the serving layer records live /query traffic, and a chain-owned
// reservoir samples the live stream — so the build inputs can be refreshed
// at any time. What cannot be refreshed is the counters: a freshly
// partitioned sketch is empty, and CountMin counters from differently
// partitioned sketches cannot be merged cell-wise.
//
// The generation chain resolves this. A Chain is a core.Estimator holding
// one live head sketch plus frozen prior generations. Updates go only to
// the head; queries gather across every generation and combine soundly
// (estimates sum, per-generation ε·N_i bounds add, confidence via a union
// bound — see query.AccumulateResults). Repartitioning then becomes a hot
// swap: build a new gSketch from fresh samples, push it as the new head,
// and let the displaced head answer — frozen — for the stream it absorbed.
//
// The Manager closes the loop: it measures drift between the workload the
// current partitioning was built from and the live recorded workload
// (total-variation divergence over source-vertex query frequencies), plus
// the share of query traffic the outlier sketch absorbs, and triggers a
// rebuild + rotate when either crosses its threshold — or on demand.
//
// Long-lived chains are lifecycle-managed by internal/compact: Compact
// folds the oldest frozen generations into one (bounding chain length and
// memory), tiering spills cold frozen generations to disk with lazy
// reload, and optional age decay down-weights ancient generations at
// gather time.
package adapt

import (
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// ErrMaxGenerations reports a rotation refused because the chain is at its
// configured generation cap. The cap bounds per-query gather cost; a chain
// under a compaction policy folds old generations before the cap is hit,
// making this error unreachable in managed operation.
var ErrMaxGenerations = errors.New("adapt: generation cap reached")

// ErrEmptyReservoir reports a rebuild refused because no stream has been
// sampled since the last swap — there is no data to partition from. The
// retry-later signal: ingest more, then repartition.
var ErrEmptyReservoir = errors.New("adapt: data reservoir is empty")

// ErrNothingToCompact reports a compaction refused because the chain has
// fewer than two frozen generations to fold.
var ErrNothingToCompact = errors.New("adapt: nothing to compact")

// ChainConfig parameterizes a Chain. The zero value selects the defaults.
type ChainConfig struct {
	// SampleSize is the capacity of the chain's data reservoir — the fresh
	// data sample a rebuild partitions from (default 4096). The reservoir
	// resets on every rotation so the next rebuild sees the stream since
	// the last swap.
	SampleSize int
	// Seed makes the reservoir deterministic.
	Seed uint64
	// MaxGenerations caps the chain length (default 8). Rotate fails with
	// ErrMaxGenerations once reached.
	MaxGenerations int
}

func (c ChainConfig) withDefaults() ChainConfig {
	if c.SampleSize == 0 {
		c.SampleSize = 4096
	}
	if c.MaxGenerations == 0 {
		c.MaxGenerations = 8
	}
	return c
}

// ChainLifecycleStats is the chain's generation-lifecycle snapshot.
type ChainLifecycleStats struct {
	// Generations is the chain length (head + frozen).
	Generations int
	// Resident counts generations whose counters are in RAM.
	Resident int
	// Tiered counts frozen generations with a disk copy.
	Tiered int
	// TieredBytes is the counter footprint currently off-RAM: the summed
	// sketch bytes of tiered generations that are not resident.
	TieredBytes int64
	// OldestFrozenAge is how long the oldest frozen generation has been
	// frozen (0 when none or unknown).
	OldestFrozenAge time.Duration
	// CompactedFrom sums the source generations folded into the current
	// chain — Generations plus how many former generations compaction
	// absorbed.
	CompactedFrom int
}

// Chain is a generation-chained estimator: one live head sketch absorbing
// the stream plus zero or more frozen prior generations still answering for
// the segments they saw. It implements core.Estimator (updates to the head,
// batched queries gathered and combined across all generations) and
// io.WriterTo (the version-4 chain container with per-generation lifecycle
// records). All methods are safe for concurrent use; per-partition write
// parallelism inside the head is the wrapped Concurrent's usual striped
// locking.
//
// Frozen generations are immutable: updates run under the shared lock, so
// a rotation's exclusive lock drains every in-flight writer before the
// displaced head becomes frozen. That immutability is what makes
// compaction (snapshot, merge offline, install) and tiering (spill, lazy
// reload) race-free against concurrent ingest.
type Chain struct {
	cfg ChainConfig

	mu   sync.RWMutex // guards gens; held shared across estimator calls
	gens []*compact.Segment

	// resMu guards res. Writers take it inside their shared hold of mu, and
	// Rotate inside its exclusive one (lock order mu → resMu), so the
	// reservoir a rotation freezes holds every edge the displaced head does.
	resMu sync.Mutex
	res   *stream.Reservoir

	// scratch pools the buffer a gather collects each frozen generation's
	// answers in (*[]core.Result), one per in-flight AppendEstimates.
	scratch sync.Pool

	// compactMu serializes compactions (manual, policy-driven, and
	// rotation-pressure) so only one fold mutates the frozen prefix at a
	// time.
	compactMu sync.Mutex

	// Lifecycle configuration. Set via SetDecay/SetTiering/SetClock before
	// the chain is shared across goroutines (the engine configures a chain
	// fully before publishing it).
	decayHalfLife time.Duration
	tierDir       string
	tierResident  int
	now           func() time.Time
}

// NewChain starts a chain with g as its only (live) generation.
func NewChain(g *core.GSketch, cfg ChainConfig) *Chain {
	return NewChainFrom([]*core.GSketch{g}, cfg)
}

// NewChainFrom rebuilds a chain from deserialized generations, oldest
// first — the shape core.ReadChain returns. The last element becomes the
// live head. It panics on an empty slice.
func NewChainFrom(gens []*core.GSketch, cfg ChainConfig) *Chain {
	return NewChainFromMeta(gens, nil, cfg)
}

// NewChainFromMeta is NewChainFrom carrying the per-generation lifecycle
// records of a version-4 chain stream (core.ReadChainMeta). metas may be
// nil (all records default) or must match gens element-wise. A frozen
// generation's freeze time is inferred as its successor's build time.
func NewChainFromMeta(gens []*core.GSketch, metas []core.GenerationMeta, cfg ChainConfig) *Chain {
	if len(gens) == 0 {
		panic("adapt: chain needs at least one generation")
	}
	if metas != nil && len(metas) != len(gens) {
		panic(fmt.Sprintf("adapt: %d generations but %d metadata records", len(gens), len(metas)))
	}
	cfg = cfg.withDefaults()
	c := &Chain{
		cfg: cfg,
		res: stream.NewReservoir(cfg.SampleSize, cfg.Seed),
		now: time.Now,
	}
	c.scratch.New = func() any { return new([]core.Result) }
	for i, g := range gens {
		var m core.GenerationMeta
		if metas != nil {
			m = metas[i]
		}
		seg := compact.NewSegment(g, m)
		if i < len(gens)-1 {
			// Restored frozen generations carry no reservoir (samples are
			// not serialized), so they compact via the exact path only.
			frozenAt := int64(0)
			if metas != nil {
				frozenAt = metas[i+1].BuiltAt
			}
			seg.Freeze(frozenAt, nil, 0)
		}
		c.gens = append(c.gens, seg)
	}
	return c
}

// Config returns the chain's resolved configuration.
func (c *Chain) Config() ChainConfig { return c.cfg }

// SetDecay enables exponential age weighting at gather time: a frozen
// generation frozen `age` ago contributes with weight 2^(-age/halfLife).
// Zero disables decay. Set before the chain is shared.
func (c *Chain) SetDecay(halfLife time.Duration) { c.decayHalfLife = halfLife }

// DecayHalfLife returns the configured decay half-life (0 = disabled).
func (c *Chain) DecayHalfLife() time.Duration { return c.decayHalfLife }

// SetTiering configures disk tiering: frozen generations beyond the
// maxResident most recently queried are spilled to files under dir and
// reloaded lazily on query. maxResident counts frozen generations only —
// the live head always stays in RAM. Zero/empty disables tiering. Set
// before the chain is shared.
func (c *Chain) SetTiering(dir string, maxResident int) {
	c.tierDir = dir
	c.tierResident = maxResident
}

// TierDir returns the configured spill directory ("" = tiering disabled).
func (c *Chain) TierDir() string { return c.tierDir }

// SetClock overrides the chain's clock, for tests.
func (c *Chain) SetClock(now func() time.Time) {
	if now != nil {
		c.now = now
	}
}

// head returns the live generation under the shared lock.
func (c *Chain) head() *compact.Segment {
	c.mu.RLock()
	h := c.gens[len(c.gens)-1]
	c.mu.RUnlock()
	return h
}

// Update folds one edge arrival into the head and offers it to the data
// reservoir. The shared lock is held across both so a rotation or
// compaction install (exclusive lock) observes fully landed writes — the
// invariant that makes frozen generations immutable — and freezes the head
// with a reservoir that has seen them.
func (c *Chain) Update(e stream.Edge) {
	c.mu.RLock()
	c.gens[len(c.gens)-1].Update(e)
	c.resMu.Lock()
	c.res.Observe(e)
	c.resMu.Unlock()
	c.mu.RUnlock()
}

// UpdateBatch folds a batch into the head (sharded route-then-scatter under
// the head's striped locks) and offers every edge to the data reservoir,
// under the shared lock as Update does.
func (c *Chain) UpdateBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	c.mu.RLock()
	c.gens[len(c.gens)-1].UpdateBatch(edges)
	c.resMu.Lock()
	c.res.ObserveAll(edges)
	c.resMu.Unlock()
	c.mu.RUnlock()
}

// decayWeight returns the gather weight of a frozen segment: 1 without
// decay, else 2^(-age/halfLife) anchored at the freeze time (falling back
// to build time; unknown ages decay by nothing — the conservative choice).
func (c *Chain) decayWeight(seg *compact.Segment, nowUnix int64) float64 {
	if c.decayHalfLife <= 0 {
		return 1
	}
	anchor := seg.FrozenAt()
	if anchor == 0 {
		anchor = seg.Meta().BuiltAt
	}
	if anchor == 0 || nowUnix <= anchor {
		return 1
	}
	age := float64(nowUnix - anchor)
	return math.Exp2(-age / c.decayHalfLife.Seconds())
}

// EstimateEdge answers an edge query as the sum of every generation's
// estimate — each generation never underestimates its own stream segment,
// so the sum never underestimates the whole stream. Decay, when enabled,
// scales frozen generations' contributions.
func (c *Chain) EstimateEdge(src, dst uint64) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	nowUnix := c.now().Unix()
	sum := c.gens[len(c.gens)-1].EstimateEdge(src, dst)
	for i := len(c.gens) - 2; i >= 0; i-- {
		est := c.gens[i].EstimateEdge(src, dst)
		if w := c.decayWeight(c.gens[i], nowUnix); w < 1 {
			est = int64(math.Round(w * float64(est)))
		}
		sum += est
	}
	return sum
}

// EstimateBatch answers a batch of edge queries across all generations in a
// result slice of its own; AppendEstimates is the same answer into a
// caller's buffer.
func (c *Chain) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	return c.AppendEstimates(make([]core.Result, 0, len(qs)), qs)
}

// AppendEstimates answers a batch of edge queries across all generations,
// appending one Result per query to dst: the head answers first, straight
// into dst (its Results carry the provenance of the partitioning currently
// serving), then every frozen generation's answers — gathered into one
// pooled scratch slice, not one slice per generation — fold in via
// query.AccumulateResults: estimates sum, ε·N_i bounds add, confidence
// combines by union bound, stream totals sum to the chain-wide volume.
// With decay enabled, a frozen generation's estimates and bounds scale by
// its age weight before folding (query.AccumulateResultsWeighted).
func (c *Chain) AppendEstimates(dst []core.Result, qs []core.EdgeQuery) []core.Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	base := len(dst)
	dst = c.gens[len(c.gens)-1].AppendEstimates(dst, qs)
	if len(c.gens) == 1 {
		return dst
	}
	out := dst[base:]
	nowUnix := c.now().Unix()
	scratch := c.scratch.Get().(*[]core.Result)
	for i := len(c.gens) - 2; i >= 0; i-- {
		*scratch = c.gens[i].AppendEstimates((*scratch)[:0], qs)
		if w := c.decayWeight(c.gens[i], nowUnix); w < 1 {
			query.AccumulateResultsWeighted(out, *scratch, w)
		} else {
			query.AccumulateResults(out, *scratch)
		}
	}
	c.scratch.Put(scratch)
	return dst
}

// Count returns the chain-wide stream volume: the sum over generations
// (spilled generations answer from their freeze-time cache), saturating at
// MaxInt64.
func (c *Chain) Count() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var sum int64
	for _, gen := range c.gens {
		sum = sketch.AddVolume(sum, gen.Count())
	}
	return sum
}

// MemoryBytes reports the resident counter footprint of all generations —
// spilled generations contribute zero, which is what tiering buys.
func (c *Chain) MemoryBytes() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, gen := range c.gens {
		total += gen.MemoryBytes()
	}
	return total
}

// NumShards reports the head generation's independent writer domains.
func (c *Chain) NumShards() int { return c.head().NumShards() }

// Generations returns the current chain length.
func (c *Chain) Generations() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.gens)
}

// AtCap reports whether the chain is at its generation cap, i.e. the next
// Rotate would fail with ErrMaxGenerations. Callers check it before paying
// for a rebuild.
func (c *Chain) AtCap() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.gens) >= c.cfg.MaxGenerations
}

// Head returns the live generation's sketch, for callers reading layout or
// routing statistics. The sketch is shared — treat it as read-only.
func (c *Chain) Head() *core.GSketch { return c.head().Sketch() }

// WriteRouteCounts forwards the head generation's routed write traffic.
func (c *Chain) WriteRouteCounts() core.RouteCounts { return c.head().Sketch().WriteRouteCounts() }

// ReadRouteCounts forwards the head generation's routed query traffic.
func (c *Chain) ReadRouteCounts() core.RouteCounts { return c.head().Sketch().ReadRouteCounts() }

// Sample returns a copy of the data reservoir — the fresh data sample a
// rebuild partitions from.
func (c *Chain) Sample() []stream.Edge {
	c.resMu.Lock()
	defer c.resMu.Unlock()
	s := c.res.Sample()
	out := make([]stream.Edge, len(s))
	copy(out, s)
	return out
}

// SampleSize returns the current data-reservoir fill without copying.
func (c *Chain) SampleSize() int {
	c.resMu.Lock()
	defer c.resMu.Unlock()
	return len(c.res.Sample())
}

// Rotate freezes the current head and installs g as the new live
// generation, then resets the data reservoir so the next rebuild samples
// only the stream after this swap. The displaced head keeps the reservoir
// it was built over as its retained sample — the re-ingest source if a
// later compaction cannot merge it cell-wise. Updates racing the swap land,
// with their reservoir offers, in one generation or the other, never
// nowhere; queries racing the swap see either chain state, both of which
// cover the full stream.
func (c *Chain) Rotate(g *core.GSketch) error {
	nowUnix := c.now().Unix()
	seg := compact.NewSegment(g, core.GenerationMeta{BuiltAt: nowUnix, CompactedFrom: 1})
	c.mu.Lock()
	if len(c.gens) >= c.cfg.MaxGenerations {
		n := len(c.gens)
		c.mu.Unlock()
		return fmt.Errorf("%w (%d generations)", ErrMaxGenerations, n)
	}
	old := c.gens[len(c.gens)-1]
	c.gens = append(c.gens, seg)
	c.resMu.Lock()
	sample := slices.Clone(c.res.Sample())
	seen := c.res.Seen()
	c.res.Reset()
	c.resMu.Unlock()
	// Freeze inside the hold: a fold or a spill takes any generation but
	// the last as frozen, so none may see the old head without its sample.
	old.Freeze(nowUnix, sample, seen)
	c.mu.Unlock()
	if _, err := c.EnforceResidency(); err != nil {
		// Tiering is best-effort on the rotation path: a spill failure
		// leaves the generation resident, costing memory, not correctness.
		_ = err
	}
	return nil
}

// Compact folds the oldest k frozen generations into one (see
// compact.Fold): cell-wise when the layouts match, else by re-partitioning
// from their retained reservoirs under cfg and workload. k is clamped to
// the available frozen generations; fewer than two returns
// ErrNothingToCompact with a zero Result. The fold runs off-lock, reading
// the frozen generations in place; only the final install takes the
// exclusive lock.
func (c *Chain) Compact(k int, cfg core.Config, workload []stream.Edge) (compact.Result, error) {
	start := time.Now()
	c.compactMu.Lock()
	defer c.compactMu.Unlock()

	c.mu.RLock()
	frozen := len(c.gens) - 1
	if k > frozen {
		k = frozen
	}
	if k < 2 {
		n := len(c.gens)
		c.mu.RUnlock()
		return compact.Result{Generations: n}, ErrNothingToCompact
	}
	srcs := make([]*compact.Segment, k)
	copy(srcs, c.gens[:k])
	c.mu.RUnlock()

	var srcBytes int64
	for _, s := range srcs {
		srcBytes += int64(s.SketchBytes())
	}
	merged, exact, err := compact.Fold(srcs, cfg, workload, c.cfg.SampleSize)
	if err != nil {
		return compact.Result{}, err
	}

	c.mu.Lock()
	// compactMu means no other fold touched the prefix, and rotations only
	// append — but verify the sources are still in place before splicing.
	for i := range srcs {
		if i >= len(c.gens) || c.gens[i] != srcs[i] {
			c.mu.Unlock()
			return compact.Result{}, errors.New("adapt: chain mutated during compaction")
		}
	}
	c.gens = append([]*compact.Segment{merged}, c.gens[k:]...)
	gens := len(c.gens)
	c.mu.Unlock()

	for _, s := range srcs {
		s.Discard()
	}
	if _, err := c.EnforceResidency(); err != nil {
		_ = err // best-effort, as on the rotation path
	}
	return compact.Result{
		Folded:      k,
		Exact:       exact,
		Generations: gens,
		FreedBytes:  srcBytes - int64(merged.SketchBytes()),
		Duration:    time.Since(start),
	}, nil
}

// EnforceResidency spills cold frozen generations past the configured
// resident cap (least recently queried first), returning how many were
// spilled. A no-op unless SetTiering configured a directory and cap.
func (c *Chain) EnforceResidency() (int, error) {
	if c.tierDir == "" || c.tierResident <= 0 {
		return 0, nil
	}
	c.mu.RLock()
	frozen := make([]*compact.Segment, len(c.gens)-1)
	copy(frozen, c.gens[:len(c.gens)-1])
	c.mu.RUnlock()

	resident := frozen[:0]
	for _, s := range frozen {
		if s.Resident() {
			resident = append(resident, s)
		}
	}
	excess := len(resident) - c.tierResident
	if excess <= 0 {
		return 0, nil
	}
	// Oldest access first; untouched segments (access 0) go before any
	// queried one, oldest generation first thanks to the stable order.
	sortSegmentsByAccess(resident)
	spilled := 0
	for _, s := range resident[:excess] {
		if err := s.Spill(c.tierDir); err != nil {
			return spilled, err
		}
		spilled++
	}
	return spilled, nil
}

// sortSegmentsByAccess orders segments by last query touch ascending,
// stably (insertion sort: the slice is at most MaxGenerations long).
func sortSegmentsByAccess(segs []*compact.Segment) {
	for i := 1; i < len(segs); i++ {
		for j := i; j > 0 && segs[j].LastAccess() < segs[j-1].LastAccess(); j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
}

// LifecycleStats snapshots the chain's generation-lifecycle state.
func (c *Chain) LifecycleStats() ChainLifecycleStats {
	c.mu.RLock()
	gens := make([]*compact.Segment, len(c.gens))
	copy(gens, c.gens)
	c.mu.RUnlock()
	st := ChainLifecycleStats{Generations: len(gens)}
	for i, s := range gens {
		st.CompactedFrom += s.Meta().CompactedFrom
		if s.Resident() {
			st.Resident++
		}
		if i < len(gens)-1 && s.Tiered() {
			st.Tiered++
			if !s.Resident() {
				st.TieredBytes += int64(s.SketchBytes())
			}
		}
	}
	if len(gens) > 1 {
		if fa := gens[0].FrozenAt(); fa > 0 {
			if age := c.now().Unix() - fa; age > 0 {
				st.OldestFrozenAge = time.Duration(age) * time.Second
			}
		}
	}
	return st
}

// LifecycleState adapts the chain to the compaction policy's view.
func (c *Chain) LifecycleState(now time.Time) compact.State {
	st := c.LifecycleStats()
	return compact.State{
		Generations: st.Generations,
		MemoryBytes: int64(c.MemoryBytes()),
		OldestAge:   st.OldestFrozenAge,
	}
}

// WriteTo serializes the whole chain as a version-4 container: every
// generation's consistent snapshot (stripe read locks per generation;
// spilled generations stream straight from their tier files), oldest
// first, each preceded by its lifecycle record. ReadChainMeta +
// NewChainFromMeta restore it; version-2 and version-3 snapshots restore
// via the same path.
func (c *Chain) WriteTo(w io.Writer) (int64, error) {
	c.mu.RLock()
	writers := make([]io.WriterTo, len(c.gens))
	metas := make([]core.GenerationMeta, len(c.gens))
	for i, gen := range c.gens {
		writers[i] = gen
		metas[i] = gen.Meta()
	}
	c.mu.RUnlock()
	return core.WriteChainMeta(w, writers, metas)
}

// Repartition builds a new generation from the chain's own data reservoir
// and the supplied query-workload sample (nil selects the data-only §4.1
// objective), then rotates it in as the live head. It returns the new
// head. Callers wanting drift-triggered rebuilds use a Manager instead.
func Repartition(c *Chain, cfg core.Config, workload []stream.Edge) (*core.GSketch, error) {
	// Check the cap up front: a build is expensive and Rotate would refuse
	// it anyway. Rotate re-checks under the lock, so a racing rotation
	// still cannot push the chain past the cap.
	if c.AtCap() {
		return nil, fmt.Errorf("%w (%d generations)", ErrMaxGenerations, c.Generations())
	}
	sample := c.Sample()
	if len(sample) == 0 {
		return nil, fmt.Errorf("%w; nothing to partition from", ErrEmptyReservoir)
	}
	g, err := core.BuildGSketch(cfg, sample, workload)
	if err != nil {
		return nil, err
	}
	if err := c.Rotate(g); err != nil {
		return nil, err
	}
	return g, nil
}

var (
	_ core.Estimator        = (*Chain)(nil)
	_ core.RouteStatsSource = (*Chain)(nil)
	_ io.WriterTo           = (*Chain)(nil)
	_ compact.Target        = (*chainTarget)(nil)
)

// chainTarget adapts a Chain plus its build inputs to compact.Target, for
// wiring a compact.Manager directly over a chain (the engine uses its own
// adapter carrying live workload samples).
type chainTarget struct {
	c        *Chain
	fold     int
	cfg      core.Config
	workload func() []stream.Edge
}

// NewCompactTarget adapts the chain to compact.Target: Compact folds with
// the build config cfg and the live workload sampled from workload (nil ⇒
// data-only rebuilds on the re-ingest path).
func NewCompactTarget(c *Chain, cfg core.Config, workload func() []stream.Edge) compact.Target {
	return &chainTarget{c: c, cfg: cfg, workload: workload}
}

func (t *chainTarget) LifecycleState(now time.Time) compact.State { return t.c.LifecycleState(now) }

func (t *chainTarget) Compact(k int) (compact.Result, error) {
	var wl []stream.Edge
	if t.workload != nil {
		wl = t.workload()
	}
	res, err := t.c.Compact(k, t.cfg, wl)
	if errors.Is(err, ErrNothingToCompact) {
		return res, nil
	}
	return res, err
}

func (t *chainTarget) EnforceResidency() (int, error) { return t.c.EnforceResidency() }
