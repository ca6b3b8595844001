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
// (estimates sum, per-generation ε·N_i bounds add, and one δ is split
// across the generations — see query.AccumulateResults and SplitDelta).
// Repartitioning then becomes a hot swap: build a new gSketch from fresh
// samples, push it as the new head, and let the displaced head answer —
// frozen — for the stream it absorbed.
//
// The Manager closes the loop: it measures drift between the workload the
// current partitioning was built from and the live recorded workload
// (total-variation divergence over source-vertex query frequencies), plus
// the share of query traffic the outlier sketch absorbs, and triggers a
// rebuild + rotate when either crosses its threshold — or on demand.
//
// Long-lived chains are lifecycle-managed by internal/compact: Compact
// folds the oldest frozen generations into one (bounding chain length and
// memory), and tiering spills cold frozen generations to disk with lazy
// reload. A chain given a fold width (SetCompaction) folds before a
// rotation at its generation cap, and remembers a refused fold until its
// generation count changes.
//
// A static chain (NewStaticChain, ServeConcurrent) is the chain of an
// engine with no rotation policy: it keeps no data reservoir and refuses
// to rotate.
//
// A windowed chain (SetWindows) is the §5 time-window store: each
// generation is one window of stream time.
package adapt

import (
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
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
// given a fold width (SetCompaction) folds old generations before a
// rotation at the cap, so then only a refused fold reaches it.
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
	// ErrMaxGenerations once reached; a windowed chain drops its oldest
	// window. Above core.MaxChainGenerations, snapshots do not read back.
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
	// A static chain has none, and its writers skip both.
	resMu sync.Mutex
	res   *stream.Reservoir

	// scratch pools the buffer a gather collects each frozen generation's
	// answers in (*[]core.Result), one per in-flight AppendEstimates. By
	// pointer: sync keeps a used pool reachable through the next collection,
	// and an embedded one would keep a displaced chain's generations alive.
	scratch *sync.Pool

	// compactMu serializes compactions (manual, policy-driven, and at the
	// cap) so only one fold mutates the frozen prefix at a time, and guards
	// refusedAt: the generation count at which a fold was last refused with
	// compact.ErrUnfoldable (0 when none was). CompactOnce and a rotation at
	// the cap try that fold again only once the count has changed. discarded
	// is set by Discard: no fold runs after it.
	compactMu sync.Mutex
	refusedAt int
	discarded bool

	// Lifecycle configuration. Set via SetTiering/SetCompaction/SetClock
	// before the chain is shared across goroutines (the engine configures a
	// chain fully before publishing it).
	tierDir      string
	tierResident int
	foldWidth    int
	onFold       func(compact.Result)
	now          func() time.Time

	// Windowing (SetWindows); a zero span means none.
	span  int64
	build core.Config
}

// NewChain starts a chain with g as its only (live) generation.
func NewChain(g *core.GSketch, cfg ChainConfig) *Chain {
	return NewChainFromMeta([]*core.GSketch{g}, nil, cfg)
}

// NewChainFromMeta rebuilds a chain from deserialized generations, oldest
// first, and their lifecycle records — the shape core.ReadChainMeta
// returns. The last generation becomes the live head; it panics on an
// empty slice. metas may be nil (all records default) or must match gens
// element-wise. A frozen generation's freeze time is inferred as its
// successor's build time.
func NewChainFromMeta(gens []*core.GSketch, metas []core.GenerationMeta, cfg ChainConfig) *Chain {
	cfg = cfg.withDefaults()
	c := newChain(cfg, segments(gens, metas))
	c.res = stream.NewReservoir(cfg.SampleSize, cfg.Seed)
	return c
}

// NewStaticChain is NewChainFromMeta for a chain with no rotation policy:
// it keeps no data reservoir, so its writers do no sampling work, and its
// zero configuration caps it at the generations it was built with, so
// Rotate refuses.
func NewStaticChain(gens []*core.GSketch, metas []core.GenerationMeta) *Chain {
	return newChain(ChainConfig{}, segments(gens, metas))
}

// ServeConcurrent is a static chain of one generation served through conc:
// its writers and readers take conc's own stripe locks, so a caller still
// writing through conc and the chain's readers exclude each other.
func ServeConcurrent(conc *core.Concurrent) *Chain {
	return newChain(ChainConfig{}, []*compact.Segment{compact.SegmentOf(conc, core.GenerationMeta{})})
}

// Like returns a chain over gens of c's kind: c's configuration, and a data
// reservoir of its own only when c keeps one — the chain a snapshot restore
// swaps in for c.
func (c *Chain) Like(gens []*core.GSketch, metas []core.GenerationMeta) *Chain {
	if c.res == nil {
		return NewStaticChain(gens, metas)
	}
	return NewChainFromMeta(gens, metas, c.cfg)
}

func newChain(cfg ChainConfig, gens []*compact.Segment) *Chain {
	return &Chain{cfg: cfg, gens: gens, now: time.Now,
		scratch: &sync.Pool{New: func() any { return new([]core.Result) }}}
}

// segments wraps deserialized generations, oldest first, as segments: the
// last live, the rest frozen. It panics on an empty slice.
func segments(gens []*core.GSketch, metas []core.GenerationMeta) []*compact.Segment {
	if len(gens) == 0 {
		panic("adapt: chain needs at least one generation")
	}
	if metas != nil && len(metas) != len(gens) {
		panic(fmt.Sprintf("adapt: %d generations but %d metadata records", len(gens), len(metas)))
	}
	segs := make([]*compact.Segment, len(gens))
	for i, g := range gens {
		var m core.GenerationMeta
		if metas != nil {
			m = metas[i]
		}
		segs[i] = compact.NewSegment(g, m)
		if i < len(gens)-1 {
			// Restored frozen generations carry no reservoir (samples are
			// not serialized), so they compact via the exact path only.
			frozenAt := int64(0)
			if metas != nil {
				frozenAt = metas[i+1].BuiltAt
			}
			segs[i].Freeze(frozenAt, nil, 0)
		}
	}
	return segs
}

// Config returns the chain's resolved configuration.
func (c *Chain) Config() ChainConfig { return c.cfg }

// SetTiering configures disk tiering: frozen generations beyond the
// maxResident most recently queried are spilled to files under dir and
// reloaded lazily on query. maxResident counts frozen generations only —
// the live head always stays in RAM. Zero/empty disables tiering. Set
// before the chain is shared.
func (c *Chain) SetTiering(dir string, maxResident int) {
	c.tierDir = dir
	c.tierResident = maxResident
}

// SetCompaction gives a rotation at the generation cap a fold of the
// oldest fold generations to make first (0 refuses with ErrMaxGenerations),
// and installs onFold, when not nil, to observe every completed fold, from
// whichever path. Set before the chain is shared.
func (c *Chain) SetCompaction(fold int, onFold func(compact.Result)) {
	c.foldWidth, c.onFold = fold, onFold
}

// SetWindows makes the chain's generations time windows (§5): window k
// covers stream times [k·span, (k+1)·span). An edge from a later window
// than the head's rotates the chain in the update path, to a head built
// under build: partitioned from the reservoir — the window before's
// sample — when the windows are adjacent, the Global Sketch after a gap.
// An edge from an earlier window, or with a negative time, is counted in
// the head. At the generation cap a rotation drops the oldest window. A
// head with no window takes the first edge's. build must be valid and span
// positive; set before the chain is shared.
func (c *Chain) SetWindows(span int64, build core.Config) {
	c.span, c.build = span, build
}

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

// UpdateBatch folds a batch into the head (sharded route-then-scatter under
// the head's striped locks) and offers every edge to the data reservoir.
// The shared lock is held across both so a rotation or compaction install
// (exclusive lock) observes fully landed writes — the invariant that makes
// frozen generations immutable — and freezes the head with a reservoir
// that has seen them. On a windowed chain that holds for each run of edges
// the head takes — its own window, an earlier one, a negative time — and
// the first edge of a later window rotates the chain to that window first.
func (c *Chain) UpdateBatch(edges []stream.Edge) {
	for len(edges) > 0 {
		c.mu.RLock()
		head := c.gens[len(c.gens)-1]
		n := len(edges)
		if c.span > 0 {
			for n = 0; n < len(edges) && c.windowSlot(edges[n]) <= head.Meta().Window; n++ {
			}
		}
		if n > 0 {
			head.UpdateBatch(edges[:n])
			if c.res != nil {
				c.resMu.Lock()
				c.res.ObserveAll(edges[:n])
				c.resMu.Unlock()
			}
		}
		c.mu.RUnlock()
		if n < len(edges) {
			c.rotateWindow(c.windowSlot(edges[n]))
		}
		edges = edges[n:]
	}
}

// windowSlot is the meta Window value of the window e falls in: its index
// plus one, or 0 for a negative time, which every head takes.
func (c *Chain) windowSlot(e stream.Edge) uint64 {
	if e.Time < 0 {
		return 0
	}
	return uint64(e.Time/c.span) + 1
}

// rotateWindow makes slot's window the head unless a racing rotation has
// moved the head there or past it. The head is built off the lock and is
// installed only if the head it was built after still serves, so racing
// rotations keep one build.
func (c *Chain) rotateWindow(slot uint64) {
	for {
		head := c.head()
		m := head.Meta()
		if m.Window >= slot {
			return
		}
		var g *core.GSketch
		if m.Window != 0 {
			g = c.buildWindow(slot == m.Window+1)
		}
		nowUnix := c.now().Unix()
		c.mu.Lock()
		if c.gens[len(c.gens)-1] != head {
			c.mu.Unlock()
			continue
		}
		var dropped *compact.Segment
		if g == nil {
			// The head has no window yet: it takes this one.
			m.Window = slot
			c.gens[len(c.gens)-1] = head.WithMeta(m)
		} else {
			c.push(compact.NewSegment(g, core.GenerationMeta{BuiltAt: nowUnix, CompactedFrom: 1, Window: slot}), nowUnix)
			if len(c.gens) > c.cfg.MaxGenerations {
				dropped, c.gens = c.gens[0], c.gens[1:]
			}
		}
		c.mu.Unlock()
		// Unlike a fold's sources, the dropped window is not collected: a
		// windowed chain rotates once per window, which can be often, and on
		// the writer that crossed into the window, which a collection stalls.
		if dropped != nil {
			dropped.Discard()
		}
		return
	}
}

// buildWindow builds a new window's head: partitioned from the reservoir
// when the window follows the head's and the reservoir holds edges, else
// the Global Sketch.
func (c *Chain) buildWindow(adjacent bool) *core.GSketch {
	if adjacent {
		if sample := c.Sample(); len(sample) > 0 {
			if g, err := core.BuildGSketch(c.build, sample, nil); err == nil {
				return g
			}
		}
	}
	g, err := core.BuildGlobalSketch(c.build)
	if err != nil {
		panic(fmt.Sprintf("adapt: window sketch: %v", err)) // SetWindows takes a valid build
	}
	return g
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
// query.AccumulateResults: estimates sum, ε·N_i bounds add, stream totals
// sum to the chain-wide volume, and query.SplitDelta keeps the answer at
// one generation's δ.
func (c *Chain) AppendEstimates(dst []core.Result, qs []core.EdgeQuery) []core.Result {
	c.mu.RLock()
	defer c.mu.RUnlock()
	base := len(dst)
	dst = c.gens[len(c.gens)-1].AppendEstimates(dst, qs)
	if len(c.gens) == 1 {
		return dst
	}
	out := dst[base:]
	scratch := c.scratch.Get().(*[]core.Result)
	for i := len(c.gens) - 2; i >= 0; i-- {
		*scratch = c.gens[i].AppendEstimates((*scratch)[:0], qs)
		query.AccumulateResults(out, *scratch)
	}
	c.scratch.Put(scratch)
	query.SplitDelta(out, len(c.gens))
	return dst
}

// EstimateWindow answers a batch of edge queries over stream times [t1, t2]
// inclusive: every window answers the whole batch, weighted by the share of
// its times the range covers (query.AccumulateResultsWeighted; §5:
// "extrapolating from the sketch time windows which overlap most
// closely"), and query.SplitDelta spreads δ over the windows weighted. A
// generation with no window adds nothing.
func (c *Chain) EstimateWindow(qs []core.EdgeQuery, t1, t2 int64) []core.Result {
	out := make([]core.Result, len(qs))
	for i := range out {
		out[i] = core.Result{Partition: core.NoPartition, Confidence: 1}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	scratch := c.scratch.Get().(*[]core.Result)
	weighted := 0
	for i := len(c.gens) - 1; i >= 0; i-- {
		w := c.overlap(c.gens[i].Meta(), t1, t2)
		if w == 0 {
			continue
		}
		*scratch = c.gens[i].AppendEstimates((*scratch)[:0], qs)
		query.AccumulateResultsWeighted(out, *scratch, w)
		weighted++
	}
	c.scratch.Put(scratch)
	query.SplitDelta(out, weighted)
	return out
}

// overlap returns the share of a generation's window times that [t1, t2]
// covers: 0 when the range misses the window or the generation has none.
// A window that starts within a span of MaxInt64 ends there.
func (c *Chain) overlap(m core.GenerationMeta, t1, t2 int64) float64 {
	k, ok := m.WindowIndex()
	if !ok || c.span <= 0 || k > math.MaxInt64/c.span {
		return 0
	}
	lo := k * c.span
	hi := lo + min(c.span-1, math.MaxInt64-lo)
	oLo, oHi := max(lo, t1), min(hi, t2)
	if oLo > oHi {
		return 0
	}
	return float64(oHi-oLo+1) / float64(hi-lo+1)
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

// atCap reports whether the chain is at its generation cap, i.e. the next
// Rotate would fail with ErrMaxGenerations.
func (c *Chain) atCap() bool {
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
// rebuild partitions from; nil on a static chain.
func (c *Chain) Sample() []stream.Edge {
	if c.res == nil {
		return nil
	}
	c.resMu.Lock()
	defer c.resMu.Unlock()
	s := c.res.Sample()
	out := make([]stream.Edge, len(s))
	copy(out, s)
	return out
}

// SampleSize returns the current data-reservoir fill without copying; 0 on
// a static chain.
func (c *Chain) SampleSize() int {
	if c.res == nil {
		return 0
	}
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
	c.push(seg, nowUnix)
	c.mu.Unlock()
	if _, err := c.EnforceResidency(); err != nil {
		// Tiering is best-effort on the rotation path: a spill failure
		// leaves the generation resident, costing memory, not correctness.
		_ = err
	}
	return nil
}

// push installs seg as the head, freezing the displaced head with the
// reservoir it was built over and resetting the reservoir. The caller holds
// mu exclusively.
func (c *Chain) push(seg *compact.Segment, nowUnix int64) {
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
}

// Compact folds the oldest k frozen generations into one (see
// compact.Fold): cell-wise when the layouts match, else by re-partitioning
// from their retained reservoirs under cfg and workload. k is clamped to
// the available frozen generations; fewer than two returns
// ErrNothingToCompact with a zero Result. The fold runs off-lock, reading
// the frozen generations in place; only the final install takes the
// exclusive lock.
func (c *Chain) Compact(k int, cfg core.Config, workload []stream.Edge) (compact.Result, error) {
	return c.observed(c.fold(k, cfg, workload, true))
}

// CompactOnce is Compact for a caller that tries again on a schedule: a
// chain with too few frozen generations is no error, and a fold refused
// with compact.ErrUnfoldable is returned once for each generation count —
// until a rotation or another fold changes the count, it returns a zero
// Result and no error.
func (c *Chain) CompactOnce(k int, cfg core.Config, workload []stream.Edge) (compact.Result, error) {
	res, err := c.observed(c.fold(k, cfg, workload, false))
	if errors.Is(err, ErrNothingToCompact) {
		err = nil
	}
	return res, err
}

// observed collects once after a completed fold, so its sources and what
// its residency pass spilled are freed now (the serving paths allocate next
// to nothing and would not prompt a collection for a long while), then
// passes the fold to onFold; both off compactMu.
func (c *Chain) observed(res compact.Result, err error) (compact.Result, error) {
	if res.Folded > 0 {
		runtime.GC()
		if c.onFold != nil {
			c.onFold(res)
		}
	}
	return res, err
}

// fold is Compact's fold under compactMu. Unless retry, a fold refused at
// the present generation count is not tried again.
func (c *Chain) fold(k int, cfg core.Config, workload []stream.Edge, retry bool) (compact.Result, error) {
	start := time.Now()
	c.compactMu.Lock()
	defer c.compactMu.Unlock()
	if c.discarded {
		return compact.Result{}, ErrNothingToCompact
	}

	c.mu.RLock()
	n := len(c.gens)
	if !retry && c.refusedAt == n {
		c.mu.RUnlock()
		return compact.Result{}, nil
	}
	k = min(k, n-1)
	if k < 2 {
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
	if errors.Is(err, compact.ErrUnfoldable) {
		c.refusedAt = n
	}
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
	// No collection here: observed collects once for the drop and the spill.
	if _, err := c.spillCold(); err != nil {
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

// Discard removes every generation's tier file, for a chain no writer
// reaches again — one a Restore displaced, once its pipeline has drained.
// It holds compactMu, so no fold is under way or starts after it, and the
// exclusive lock, so no gather is mid-reload; a spilled generation then
// answers a later gather with zero contributions.
func (c *Chain) Discard() {
	c.compactMu.Lock()
	defer c.compactMu.Unlock()
	c.discarded = true
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.gens {
		s.Discard()
	}
}

// EnforceResidency spills cold frozen generations past the configured
// resident cap (least recently queried first), returning how many were
// spilled. A no-op unless SetTiering configured a directory and cap. A pass
// that spilled collects once, as a fold does.
func (c *Chain) EnforceResidency() (int, error) {
	spilled, err := c.spillCold()
	if spilled > 0 {
		runtime.GC()
	}
	return spilled, err
}

// spillCold is EnforceResidency without the collection.
func (c *Chain) spillCold() (int, error) {
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
func (c *Chain) LifecycleState() compact.State {
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
// objective), then rotates it in as the live head. At the generation cap
// it folds first (see headroom) or refuses with ErrMaxGenerations. It
// returns the new head. Callers wanting drift-triggered rebuilds use a
// Manager instead.
func Repartition(c *Chain, cfg core.Config, workload []stream.Edge) (*core.GSketch, error) {
	// Make room up front: a build is expensive and Rotate would refuse it
	// at the cap anyway. Rotate re-checks under the lock, so a racing
	// rotation still cannot push the chain past the cap.
	if ok, err := c.headroom(cfg, workload); !ok {
		if err == nil {
			err = fmt.Errorf("%w (%d generations)", ErrMaxGenerations, c.Generations())
		}
		return nil, err
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

// headroom makes room for one rotation: at the cap, a chain given a fold
// width folds its oldest generations under cfg and workload first, as
// CompactOnce does. It reports whether a rotation fits; a fold refused now
// comes back as ErrMaxGenerations wrapping compact.ErrUnfoldable, one
// refused before as no error.
func (c *Chain) headroom(cfg core.Config, workload []stream.Edge) (bool, error) {
	if !c.atCap() {
		return true, nil
	}
	if c.foldWidth == 0 {
		return false, nil
	}
	if _, err := c.CompactOnce(c.foldWidth, cfg, workload); errors.Is(err, compact.ErrUnfoldable) {
		return false, fmt.Errorf("%w: %w", ErrMaxGenerations, err)
	} else if err != nil {
		return false, err
	}
	return !c.atCap(), nil
}

var (
	_ core.Estimator        = (*Chain)(nil)
	_ core.RouteStatsSource = (*Chain)(nil)
	_ io.WriterTo           = (*Chain)(nil)
)
