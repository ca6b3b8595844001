package adapt

import (
	"sync"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// ManagerConfig parameterizes a Manager. The zero value selects the
// defaults: drift evaluated against a 0.5 divergence / 0.25 outlier-share
// threshold, rebuilds gated on minimum sample sizes.
type ManagerConfig struct {
	// Sketch is the build configuration of rebuilt generations (required:
	// it must validate under core.Config rules).
	Sketch core.Config
	// DriftThreshold triggers a rebuild when the total-variation divergence
	// between the baseline and live workload distributions reaches it
	// (default 0.5; range [0,1]).
	DriftThreshold float64
	// OutlierThreshold triggers a rebuild when the share of query traffic
	// answered by the head's outlier sketch since the last swap reaches it
	// (default 0.25).
	OutlierThreshold float64
	// MinWorkload is the smallest live workload sample drift is evaluated
	// on (default 64). Below it, ShouldRepartition always reports false.
	MinWorkload int
	// MinData is the smallest data reservoir a rebuild proceeds from
	// (default 256).
	MinData int
	// Baseline is the query-workload sample the chain's current head was
	// built from, if any — the distribution live traffic is compared
	// against. Empty means the head encodes no workload knowledge, and any
	// sufficient live workload reads as maximal divergence.
	Baseline []stream.Edge
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.5
	}
	if c.OutlierThreshold == 0 {
		c.OutlierThreshold = 0.25
	}
	if c.MinWorkload == 0 {
		c.MinWorkload = 64
	}
	if c.MinData == 0 {
		c.MinData = 256
	}
	return c
}

// Drift is one evaluation of how far live traffic has moved from the
// workload the serving partitioning was optimized for.
type Drift struct {
	// WorkloadDivergence is the total-variation distance, in [0, 1],
	// between the baseline and live source-vertex query distributions. 1
	// when the head was built with no workload sample but live workload
	// exists (the partitioning encodes no workload knowledge at all).
	WorkloadDivergence float64 `json:"workload_divergence"`
	// OutlierShare is the fraction of routed query traffic the head's
	// outlier sketch absorbed since the last swap (or manager creation).
	OutlierShare float64 `json:"outlier_share"`
	// LiveWorkload is the size of the live workload sample evaluated.
	LiveWorkload int `json:"live_workload"`
	// DataSample is the current fill of the chain's data reservoir.
	DataSample int `json:"data_sample"`
}

// RepartitionResult reports one completed rebuild + hot swap.
type RepartitionResult struct {
	// Generations is the chain length after the swap.
	Generations int `json:"generations"`
	// Partitions is the new head's localized-sketch count.
	Partitions int `json:"partitions"`
	// Before is the drift evaluation that preceded the swap.
	Before Drift `json:"before"`
	// BuildDuration is the time spent building and rotating the new
	// generation — the hot-swap latency.
	BuildDuration time.Duration `json:"-"`
}

// Workload is the live recorded query workload a Manager watches: the
// serving layer's reservoir over /query traffic. Recorder is one.
type Workload interface {
	// Sample returns a copy of the current sample: what a rebuild
	// partitions for.
	Sample() []stream.Edge
	// SourceShares adds each source's share of the current sample's queries
	// to dist and returns the sample's size, without copying the sample.
	SourceShares(dist map[uint64]float64) int
}

// Manager watches drift between the workload the current partitioning was
// built from and the live recorded workload, and rebuilds + hot-swaps a new
// generation on threshold (via Check, which the engine's lifecycle
// goroutine drives on a ticker) or on demand (Repartition). All methods are
// safe for concurrent use; rebuilds are serialized, and the drift gauges
// (Drift, Repartitions) never wait behind an in-flight rebuild — a
// monitoring endpoint stays responsive during the swap it is watching.
type Manager struct {
	cfg ManagerConfig
	// workload is the live recorded query workload. Nil or empty disables
	// the divergence signal; the outlier-share signal still works.
	workload Workload

	// rebuildMu serializes rebuilds and rebinds — the only lock held
	// across a (potentially long) partitioning build.
	rebuildMu sync.Mutex
	// mu guards the fields below and is never held across a build.
	mu        sync.Mutex
	chain     *Chain
	baseline  map[uint64]float64
	readsBase core.RouteCounts // head read counts at last swap (or creation)

	repartitions int64
	// swapObs, when set, observes every completed swap's build+rotate
	// duration — the hook a metrics histogram hangs off.
	swapObs func(time.Duration)
	// compactor, when set, is invoked to fold old generations before a
	// rotation that would otherwise refuse at the generation cap — the
	// engine wires it to the chain's compaction when a lifecycle policy is
	// configured. With it in place the manager's rebuild paths reach
	// ErrMaxGenerations only when the fold is refused.
	compactor func() error

	// liveMu guards live, the distribution Drift reads the live sample into:
	// kept from call to call, so that a gauge polled every few milliseconds
	// copies no sample and builds no map.
	liveMu sync.Mutex
	live   map[uint64]float64
}

// NewManager builds a manager over chain. workload supplies the live
// recorded query sample and may be nil.
func NewManager(chain *Chain, workload Workload, cfg ManagerConfig) *Manager {
	m := &Manager{
		cfg:      cfg.withDefaults(),
		chain:    chain,
		workload: workload,
		live:     make(map[uint64]float64),
	}
	m.baseline = sourceDistribution(m.cfg.Baseline)
	m.readsBase = chain.ReadRouteCounts()
	return m
}

// Chain returns the chain the manager acts on.
func (m *Manager) Chain() *Chain {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.chain
}

// Rebind points the manager at a replacement chain (a snapshot restore
// swaps the serving chain wholesale), running swap — the caller's own
// switchover, e.g. the serving-engine pointer flip — inside the manager's
// rebuild lock. That makes the rebind atomic with respect to Check and
// Repartition: any in-flight rebuild finishes against the old chain while
// it is still serving, and none can start against a chain that has already
// been displaced. Baseline bookkeeping resets to the new chain's state.
func (m *Manager) Rebind(chain *Chain, baseline []stream.Edge, swap func()) {
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if swap != nil {
		swap()
	}
	m.chain = chain
	m.baseline = sourceDistribution(baseline)
	m.readsBase = chain.ReadRouteCounts()
}

// SetCompactor installs fn as the cap-pressure compaction hook (nil
// uninstalls): Check and Repartition call it before a rebuild that finds
// the chain at its generation cap, so a chain under a compaction policy
// keeps rotating instead of refusing with ErrMaxGenerations.
func (m *Manager) SetCompactor(fn func() error) {
	m.mu.Lock()
	m.compactor = fn
	m.mu.Unlock()
}

// ensureHeadroom folds old generations when the chain is at its cap and a
// compactor is installed. The caller holds rebuildMu. It reports whether
// the chain has rotation headroom afterwards.
func (m *Manager) ensureHeadroom() (bool, error) {
	chain := m.Chain()
	if !chain.AtCap() {
		return true, nil
	}
	m.mu.Lock()
	fn := m.compactor
	m.mu.Unlock()
	if fn == nil {
		return false, nil
	}
	if err := fn(); err != nil {
		return false, err
	}
	return !chain.AtCap(), nil
}

// SetSwapObserver installs fn to be called with the BuildDuration of
// every completed repartition swap (nil uninstalls). Used by the
// serving layer to feed a swap-duration histogram; fn must be fast and
// must not call back into the manager.
func (m *Manager) SetSwapObserver(fn func(time.Duration)) {
	m.mu.Lock()
	m.swapObs = fn
	m.mu.Unlock()
}

// Repartitions returns the number of completed swaps.
func (m *Manager) Repartitions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.repartitions
}

// Drift evaluates the current drift signals without acting on them. It
// never waits behind an in-flight rebuild, and it reads the live sample in
// place into a distribution it reuses: no copy, no map per call.
func (m *Manager) Drift() Drift {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	clear(m.live)
	n := 0
	if m.workload != nil {
		n = m.workload.SourceShares(m.live)
	}
	if n == 0 {
		return m.evaluate(0, nil)
	}
	return m.evaluate(n, m.live)
}

// drift is Drift for a rebuild: it also returns a copy of the live workload
// sample it evaluated — so a rebuild triggered by this evaluation
// partitions for exactly the workload the reported drift describes.
func (m *Manager) drift() (Drift, []stream.Edge) {
	var live []stream.Edge
	if m.workload != nil {
		live = m.workload.Sample()
	}
	return m.evaluate(len(live), sourceDistribution(live)), live
}

// evaluate computes the drift signals, under the light state lock only, for
// a live sample of n queries whose source distribution is live.
func (m *Manager) evaluate(n int, live map[uint64]float64) Drift {
	m.mu.Lock()
	chain := m.chain
	baseline := m.baseline
	readsBase := m.readsBase
	m.mu.Unlock()
	d := Drift{
		LiveWorkload: n,
		DataSample:   chain.SampleSize(),
	}
	if n >= m.cfg.MinWorkload {
		d.WorkloadDivergence = divergence(baseline, live)
	}
	now := chain.ReadRouteCounts()
	if dt := now.Total - readsBase.Total; dt > 0 {
		d.OutlierShare = float64(now.Outlier-readsBase.Outlier) / float64(dt)
	}
	return d
}

// ShouldRepartition reports whether a drift evaluation crosses the
// configured thresholds and the samples are big enough to rebuild from.
func (m *Manager) ShouldRepartition(d Drift) bool {
	if d.DataSample < m.cfg.MinData || d.LiveWorkload < m.cfg.MinWorkload {
		return false
	}
	return d.WorkloadDivergence >= m.cfg.DriftThreshold || d.OutlierShare >= m.cfg.OutlierThreshold
}

// Check evaluates drift and repartitions if the thresholds are crossed. It
// returns the swap result when one happened, nil otherwise — the auto-
// trigger entry point. At the chain's generation cap Check first compacts
// (when a compactor is installed) so drift can still be acted on; without
// one it is a cheap no-op: no rebuild is attempted (and none is wasted).
func (m *Manager) Check() (*RepartitionResult, error) {
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	ok, err := m.ensureHeadroom()
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	d, live := m.drift()
	if !m.ShouldRepartition(d) {
		return nil, nil
	}
	return m.repartition(d, live)
}

// Repartition rebuilds and hot-swaps unconditionally (on demand), gated
// only on a non-empty data reservoir. The live workload sample — whatever
// its size — steers the new partitioning when present. At the generation
// cap it compacts first when a compactor is installed; otherwise the
// rebuild fails with ErrMaxGenerations as before.
func (m *Manager) Repartition() (*RepartitionResult, error) {
	m.rebuildMu.Lock()
	defer m.rebuildMu.Unlock()
	if _, err := m.ensureHeadroom(); err != nil {
		return nil, err
	}
	d, live := m.drift()
	return m.repartition(d, live)
}

// repartition runs the rebuild + swap; the caller holds rebuildMu, so the
// chain cannot be rebound mid-build and rebuilds are serialized. live is
// the same sample before describes.
func (m *Manager) repartition(before Drift, live []stream.Edge) (*RepartitionResult, error) {
	chain := m.Chain()
	start := time.Now()
	g, err := Repartition(chain, m.cfg.Sketch, live)
	if err != nil {
		return nil, err
	}
	res := &RepartitionResult{
		Generations:   chain.Generations(),
		Partitions:    g.NumPartitions(),
		Before:        before,
		BuildDuration: time.Since(start),
	}
	// The new head was optimized for today's workload: it becomes the
	// baseline tomorrow's drift is measured against, and the outlier share
	// restarts from the new head's (zeroed) counters.
	m.mu.Lock()
	m.baseline = sourceDistribution(live)
	m.readsBase = chain.ReadRouteCounts()
	m.repartitions++
	swapObs := m.swapObs
	m.mu.Unlock()
	if swapObs != nil {
		swapObs(res.BuildDuration)
	}
	return res, nil
}

// sourceDistribution normalizes a workload sample into a per-source-vertex
// query frequency distribution. Empty input yields nil (no knowledge).
func sourceDistribution(workload []stream.Edge) map[uint64]float64 {
	if len(workload) == 0 {
		return nil
	}
	dist := make(map[uint64]float64, len(workload))
	addSources(dist, workload)
	return dist
}

// addSources adds each source's share of a workload sample's queries to
// dist.
func addSources(dist map[uint64]float64, workload []stream.Edge) {
	inc := 1 / float64(len(workload))
	for _, q := range workload {
		dist[q.Src] += inc
	}
}

// divergence is the total-variation distance ½·Σ|p(v)-q(v)| between two
// source distributions, in [0, 1]. A nil baseline against a non-nil live
// distribution is maximal drift: the serving partitioning encodes no
// workload knowledge at all. Two nils are zero.
func divergence(base, live map[uint64]float64) float64 {
	if base == nil && live == nil {
		return 0
	}
	if base == nil || live == nil {
		return 1
	}
	var sum float64
	for v, p := range base {
		q := live[v]
		if p > q {
			sum += p - q
		} else {
			sum += q - p
		}
	}
	for v, q := range live {
		if _, seen := base[v]; !seen {
			sum += q
		}
	}
	if sum > 2 { // guard the [0,1] contract against float accumulation
		sum = 2
	}
	return sum / 2
}
