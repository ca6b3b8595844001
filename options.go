package gsketch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/vstats"
)

// Option configures an Engine at Open time.
type Option func(*engineOptions)

// engineOptions is the resolved option set of one Open call.
type engineOptions struct {
	// bootstrap sources (exactly one)
	dataSample  []Edge
	sampleSet   bool
	samplePath  string
	sampleLimit int
	global      bool
	estimator   Estimator
	restore     io.Reader
	restorePath string

	workload []Edge

	adaptive     bool
	chainCfg     adapt.ChainConfig
	managerCfg   adapt.ManagerConfig
	autoInterval time.Duration
	autoErr      func(error)

	compactPolicy *compact.Policy
	compactErr    func(error)
	tierDir       string
	tierResident  int

	ingestCfg *ingest.Config
	windowCfg *WindowConfig

	snapshotPath    string
	snapshotOnClose bool

	recorderCap  int
	recorderSeed uint64

	now func() time.Time
}

// WithSample supplies the data sample partitioning is built from — the
// bootstrap source of the paper's partitioned estimator. The sample steers
// partitioning only; stream the full data in afterwards with Ingest.
func WithSample(data []Edge) Option {
	return func(o *engineOptions) { o.dataSample, o.sampleSet = data, true }
}

// WithSampleFile is WithSample over the first limit edges (0 = all) of an
// edge file in either format — the sample twin of WithRestoreFile. Open
// reads the file twice, a chunk at a time, and never holds the sample: what
// the build keeps is at most 12 bytes of statistics per sample edge, not the
// 32 of the edge, and 12 per run where consecutive edges repeat. The
// partitioning is the one WithSample builds from the same edges. The path
// must name a regular file that does not change while Open reads it.
func WithSampleFile(path string, limit int) Option {
	return func(o *engineOptions) { o.samplePath, o.sampleLimit = path, limit }
}

// WithWorkloadSample supplies a query-workload sample: partitioning then
// minimizes the workload-aware objective of §4.2 instead of the data-only
// §4.1, and the sample becomes the drift baseline of an adaptive engine.
func WithWorkloadSample(workload []Edge) Option {
	return func(o *engineOptions) { o.workload = workload }
}

// WithGlobal bootstraps the unpartitioned Global Sketch baseline of §3.2
// instead of a partitioned gSketch (no sample needed, weaker bounds).
func WithGlobal() Option {
	return func(o *engineOptions) { o.global = true }
}

// WithEstimator adopts an estimator built elsewhere as the engine's core.
// A *Chain is served as-is. A *GSketch becomes a chain of one generation,
// and a *Concurrent one whose generation is served through the
// Concurrent's own stripe locks, so writes through it and the engine's
// reads still exclude each other. Any other Estimator is served behind one
// read-write mutex, and does not snapshot.
func WithEstimator(est Estimator) Option {
	return func(o *engineOptions) { o.estimator = est }
}

// WithRestore bootstraps the engine from a snapshot stream previously
// written by Save (a version-4 chain container), or one of the older
// version-2 or version-3 streams. The reader is consumed during Open.
func WithRestore(r io.Reader) Option {
	return func(o *engineOptions) { o.restore = r }
}

// WithRestoreFile bootstraps the engine from a snapshot file.
func WithRestoreFile(path string) Option {
	return func(o *engineOptions) { o.restorePath = path }
}

// WithAdaptive makes the engine's generation chain adaptive: the chain
// keeps a data reservoir that samples the live stream, a manager watches
// drift (live workload vs the partitioning's baseline, plus the head's
// outlier read share), and Repartition — on demand or via
// WithAutoRepartition — rebuilds the partitioning from live samples and
// hot-swaps it in as a new generation without forgetting the stream
// already summarized.
//
// cc parameterizes the chain (reservoir size, generation cap); mc the
// manager thresholds. Rebuilt generations are built under the Open
// configuration, and drift is measured against WithWorkloadSample's
// sample.
func WithAdaptive(cc ChainConfig, mc AdaptConfig) Option {
	return func(o *engineOptions) {
		o.adaptive = true
		o.chainCfg = cc
		o.managerCfg = mc
	}
}

// WithAutoRepartition runs the drift check on the engine's lifecycle
// goroutine: every interval the manager evaluates drift and rebuilds +
// hot-swaps when a threshold is crossed. onErr receives rebuild failures
// (nil drops them; a failed rebuild leaves the serving chain untouched).
// Requires WithAdaptive. Close stops and awaits the goroutine before
// anything else shuts down.
func WithAutoRepartition(interval time.Duration, onErr func(error)) Option {
	return func(o *engineOptions) {
		o.autoInterval = interval
		o.autoErr = onErr
	}
}

// WithCompaction mounts the generation-lifecycle compaction policy on an
// adaptive engine: every p.Interval the engine's lifecycle goroutine folds
// the oldest p.Fold frozen generations into one while the chain length,
// resident memory, or oldest-generation age crosses a configured trigger,
// and the chain folds them before a rotation at its generation cap — so
// ErrMaxGenerations comes only from a refused fold (compact.ErrUnfoldable),
// which the chain does not try again until its generation count changes.
// Folding is lossless (cell-wise counter merge) when the generations share
// a hash layout, else a re-partition from their retained reservoirs under
// the Open configuration. onErr receives background compaction failures
// (nil drops them; a failed fold leaves the serving chain untouched).
// Requires WithAdaptive (or an adopted *Chain estimator).
func WithCompaction(p CompactionPolicy, onErr func(error)) Option {
	return func(o *engineOptions) { pp := p; o.compactPolicy = &pp; o.compactErr = onErr }
}

// WithTiering spills cold frozen generations to files under dir, keeping at
// most maxResident frozen generations' counters in RAM (the live head
// always stays resident). Spilled generations reload lazily on query.
// Requires WithAdaptive (or an adopted *Chain estimator).
func WithTiering(dir string, maxResident int) Option {
	return func(o *engineOptions) { o.tierDir = dir; o.tierResident = maxResident }
}

// WithIngest mounts the parallel batch-ingest pipeline between
// Ingest/TryIngest and the estimator: a bounded multi-producer queue of
// edge batches drained by N workers through the striped locks. The zero
// config selects the pipeline defaults (GOMAXPROCS workers, 1024-edge
// batches, 4×workers queue depth).
func WithIngest(cfg IngestConfig) Option {
	return func(o *engineOptions) { c := cfg; o.ingestCfg = &c }
}

// WithWindows makes the engine's generations the §5 time windows that
// QueryWindow answers time ranges over; Query covers them all. The
// bootstrap estimator is the first edge's window. A later window starts
// partitioned under the Open configuration from a sample of the window
// before it, or as a Global Sketch after a gap. An edge from an earlier
// window, or with a negative time, counts in the current one: windows follow
// apply order, so a windowed pipeline runs one worker. Snapshots carry the
// windows; past 1 024 (core.MaxChainGenerations) the oldest is dropped. It
// excludes WithAdaptive and the lifecycle options, and adopts only a
// *GSketch.
func WithWindows(cfg WindowConfig) Option {
	return func(o *engineOptions) { c := cfg; o.windowCfg = &c }
}

// WithSnapshotDir gives snapshot persistence a home directory:
// SaveSnapshot/RestoreSnapshot default to <dir>/gsketch.snap.
func WithSnapshotDir(dir string) Option {
	return func(o *engineOptions) { o.snapshotPath = filepath.Join(dir, "gsketch.snap") }
}

// WithSnapshotFile sets the exact default snapshot path (an alternative to
// WithSnapshotDir for callers that name the file themselves).
func WithSnapshotFile(path string) Option {
	return func(o *engineOptions) { o.snapshotPath = path }
}

// WithSnapshotOnClose persists a final snapshot to the configured path
// during Close, after the ingest queue drains and the adaptive loop stops.
func WithSnapshotOnClose() Option {
	return func(o *engineOptions) { o.snapshotOnClose = true }
}

// WithWorkloadRecorder samples served query traffic into a live workload
// reservoir (uniform over queries seen) in the paper's workload-sample
// format. The sample steers adaptive rebuilds and exports via Workload /
// WriteWorkloadTo for offline §4.2 builds. capacity <= 0 disables
// recording.
func WithWorkloadRecorder(capacity int, seed uint64) Option {
	return func(o *engineOptions) {
		o.recorderCap = capacity
		o.recorderSeed = seed
	}
}

// WithClock overrides the engine's clock (generation build and freeze
// times, the compaction policy's ages, recorded query timestamps) — for
// tests.
func WithClock(now func() time.Time) Option {
	return func(o *engineOptions) { o.now = now }
}

// validate rejects contradictory option sets before anything is built.
func (o *engineOptions) validate() error {
	sources := 0
	for _, on := range []bool{o.sampleSet || o.samplePath != "", o.global, o.estimator != nil, o.restore != nil || o.restorePath != ""} {
		if on {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("gsketch: Open needs exactly one bootstrap source — WithSample(File), WithGlobal, WithEstimator or WithRestore (got %d)", sources)
	}
	if o.restore != nil && o.restorePath != "" {
		return errors.New("gsketch: WithRestore and WithRestoreFile are mutually exclusive")
	}
	if o.sampleSet && o.samplePath != "" {
		return errors.New("gsketch: WithSample and WithSampleFile are mutually exclusive")
	}
	if o.sampleLimit < 0 {
		return errors.New("gsketch: negative sample file limit")
	}
	// Ingest refuses a negative weight; so does Open, in any sample. The
	// data sample's are refused by the statistics passes, which read it
	// anyway; the workload sample's here.
	if err := checkWeights(o.workload); err != nil {
		return fmt.Errorf("gsketch: WithWorkloadSample: %w", err)
	}
	if w := o.windowCfg; w != nil {
		if o.adaptive || o.lifecycleConfigured() {
			return errors.New("gsketch: WithWindows excludes WithAdaptive, WithCompaction and WithTiering")
		}
		if w.Span <= 0 || w.SampleSize <= 0 {
			return fmt.Errorf("gsketch: WithWindows needs a positive span and sample size (got %d and %d)", w.Span, w.SampleSize)
		}
	}
	if o.global && o.adaptive {
		return errors.New("gsketch: WithAdaptive needs a partitioned gSketch; it is incompatible with WithGlobal")
	}
	if o.autoInterval > 0 && !o.adaptive {
		return errors.New("gsketch: WithAutoRepartition requires WithAdaptive")
	}
	if o.autoInterval < 0 {
		return errors.New("gsketch: negative auto-repartition interval")
	}
	if o.tierResident < 0 {
		return errors.New("gsketch: negative tiering residency cap")
	}
	if (o.tierDir == "") != (o.tierResident == 0) {
		return errors.New("gsketch: WithTiering needs both a directory and a positive residency cap")
	}
	if o.compactPolicy != nil && o.compactPolicy.Interval < 0 {
		return errors.New("gsketch: negative compaction interval")
	}
	if o.lifecycleConfigured() && !o.managedChain() {
		return errors.New("gsketch: WithCompaction/WithTiering need a managed generation chain (WithAdaptive or an adopted *Chain)")
	}
	if o.snapshotOnClose && o.snapshotPath == "" {
		return errors.New("gsketch: WithSnapshotOnClose needs a snapshot path (WithSnapshotDir or WithSnapshotFile)")
	}
	return nil
}

// lifecycleConfigured reports whether any generation-lifecycle option
// (compaction, tiering) was set.
func (o *engineOptions) lifecycleConfigured() bool {
	return o.compactPolicy != nil || o.tierDir != ""
}

// managedChain reports whether the serving chain takes the lifecycle
// options and Compact: an adaptive engine's, or a *Chain adopted from
// elsewhere.
func (o *engineOptions) managedChain() bool {
	_, adopted := o.estimator.(*adapt.Chain)
	return o.adaptive || adopted
}

// buildEstimator resolves the bootstrap source into the serving estimator:
// a generation chain, or a foreign estimator behind a mutex. An adaptive
// or windowed engine's chain samples its stream into a data reservoir, as
// its ChainConfig says; any other engine's chain is static, with no
// reservoir and no rotation.
func (o *engineOptions) buildEstimator(cfg Config) (servingEstimator, error) {
	sampled := o.adaptive || o.windowCfg != nil
	cc := o.chainCfg
	if w := o.windowCfg; w != nil {
		// Every window is built under cfg, whatever the bootstrap source.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		cc = adapt.ChainConfig{SampleSize: w.SampleSize, Seed: cfg.Seed, MaxGenerations: core.MaxChainGenerations}
	}
	chain := func(gens []*GSketch, metas []core.GenerationMeta) *adapt.Chain {
		if sampled {
			return adapt.NewChainFromMeta(gens, metas, cc)
		}
		return adapt.NewStaticChain(gens, metas)
	}

	var g *GSketch
	var err error
	switch {
	case o.estimator != nil:
		switch v := o.estimator.(type) {
		case *adapt.Chain:
			if o.windowCfg != nil {
				return nil, errors.New("gsketch: WithWindows cannot adopt a *Chain; pass a *GSketch")
			}
			return v, nil
		case *core.GSketch:
			g = v
		case *core.Concurrent:
			if sampled {
				return nil, errors.New("gsketch: WithAdaptive or WithWindows cannot chain a *Concurrent; pass the underlying *GSketch")
			}
			return adapt.ServeConcurrent(v), nil
		default:
			if sampled {
				return nil, fmt.Errorf("gsketch: WithAdaptive or WithWindows cannot chain a %T; pass a *GSketch", v)
			}
			return &lockedEstimator{est: v}, nil
		}

	case o.restore != nil || o.restorePath != "":
		src := o.restore
		if src == nil {
			f, err := os.Open(o.restorePath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			src = f
		}
		gens, metas, err := core.ReadChainMeta(src)
		if err != nil {
			return nil, fmt.Errorf("gsketch: restore: %w", err)
		}
		return chain(gens, metas), nil

	case o.global:
		g, err = core.BuildGlobalSketch(cfg)

	case o.samplePath != "":
		// The configuration is checked before the file is read, as
		// BuildGSketch checks it before it reads the sample.
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		stats, ferr := vstats.FromFile(o.samplePath, o.sampleLimit)
		if ferr != nil {
			return nil, sampleError("WithSampleFile "+o.samplePath, ferr)
		}
		g, err = core.BuildGSketchFromSampleStats(cfg, stats, o.workload)

	default:
		g, err = core.BuildGSketch(cfg, o.dataSample, o.workload)
		if errors.Is(err, vstats.ErrNegativeWeight) {
			return nil, sampleError("WithSample", err)
		}
	}
	if err != nil {
		return nil, err
	}
	return chain([]*GSketch{g}, nil), nil
}

// lockedEstimator serves a foreign Estimator adopted by WithEstimator
// behind one read-write mutex: writers exclude everyone, readers share.
type lockedEstimator struct {
	mu  sync.RWMutex
	est Estimator
}

func (l *lockedEstimator) Update(e Edge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.est.Update(e)
}

func (l *lockedEstimator) UpdateBatch(edges []Edge) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.est.UpdateBatch(edges)
}

func (l *lockedEstimator) EstimateEdge(src, dst uint64) int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.est.EstimateEdge(src, dst)
}

func (l *lockedEstimator) EstimateBatch(qs []EdgeQuery) []Result {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.est.EstimateBatch(qs)
}

func (l *lockedEstimator) AppendEstimates(dst []Result, qs []EdgeQuery) []Result {
	return append(dst, l.EstimateBatch(qs)...)
}

func (l *lockedEstimator) Count() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.est.Count()
}

func (l *lockedEstimator) MemoryBytes() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.est.MemoryBytes()
}

// NumShards reports the one writer domain the mutex makes.
func (l *lockedEstimator) NumShards() int { return 1 }

// sampleError names the option a data sample came through in an error from
// reading it, and reports a negative weight in it as ErrNegativeWeight, as
// ingest does.
func sampleError(option string, err error) error {
	if errors.Is(err, vstats.ErrNegativeWeight) {
		return fmt.Errorf("gsketch: %s: %w (%w)", option, ErrNegativeWeight, err)
	}
	return fmt.Errorf("gsketch: %s: %w", option, err)
}
