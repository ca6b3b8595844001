package gsketch

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/vstats"
	"github.com/graphstream/gsketch/internal/window"
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
	decayHalfLife time.Duration

	ingestCfg   *ingest.Config
	windowCfg   *window.StoreConfig
	windowStore *window.Store

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
// the build keeps is 12 bytes per sample edge of statistics, not the 32 of
// the edge. The partitioning is the one WithSample builds from the same
// edges. The path must name a regular file that does not change while Open
// reads it.
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
// A *Concurrent or *Chain is served as-is; anything else is wrapped in a
// Concurrent so the engine's paths go through the striped locks.
func WithEstimator(est Estimator) Option {
	return func(o *engineOptions) { o.estimator = est }
}

// WithRestore bootstraps the engine from a snapshot stream previously
// written by Save (single-sketch or chain container). The reader is
// consumed during Open.
func WithRestore(r io.Reader) Option {
	return func(o *engineOptions) { o.restore = r }
}

// WithRestoreFile bootstraps the engine from a snapshot file.
func WithRestoreFile(path string) Option {
	return func(o *engineOptions) { o.restorePath = path }
}

// WithAdaptive turns the estimator into a generation chain managed for
// adaptive repartitioning: the chain's reservoir samples the live stream,
// the manager watches drift (live workload vs the partitioning's baseline,
// plus the head's outlier read share), and Repartition — on demand or via
// WithAutoRepartition — rebuilds the partitioning from live samples and
// hot-swaps it in as a new generation without forgetting the stream
// already summarized.
//
// cc parameterizes the chain (reservoir size, generation cap); mc the
// manager thresholds. A zero mc.Sketch inherits the Open configuration; a
// nil mc.Baseline inherits WithWorkloadSample's sample.
func WithAdaptive(cc ChainConfig, mc AdaptConfig) Option {
	return func(o *engineOptions) {
		o.adaptive = true
		o.chainCfg = cc
		o.managerCfg = mc
	}
}

// WithAutoRepartition starts the drift-watching auto-trigger loop: every
// interval the manager evaluates drift and rebuilds + hot-swaps when a
// threshold is crossed. onErr receives rebuild failures (nil drops them; a
// failed rebuild leaves the serving chain untouched). Requires
// WithAdaptive. Close stops and awaits the loop before anything else shuts
// down.
func WithAutoRepartition(interval time.Duration, onErr func(error)) Option {
	return func(o *engineOptions) {
		o.autoInterval = interval
		o.autoErr = onErr
	}
}

// WithCompaction mounts the generation-lifecycle compaction policy on an
// adaptive engine: a background loop (period p.Interval) folds the oldest
// p.Fold frozen generations into one whenever the chain length, resident
// memory, or oldest-generation age crosses a configured trigger, and the
// repartition manager compacts on demand before a rotation that would hit
// the chain's generation cap — so ErrMaxGenerations becomes unreachable
// under policy. Folding is lossless (cell-wise counter merge) when the
// generations share a hash layout, else a re-partition from their retained
// reservoirs. onErr receives background compaction failures (nil drops
// them; a failed fold leaves the serving chain untouched). Requires
// WithAdaptive (or an adopted *Chain estimator).
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

// WithDecay enables exponential age weighting at gather time: a frozen
// generation frozen `age` ago contributes to chain answers with weight
// 2^(-age/halfLife) — estimates and error bounds scale together, so bounds
// stay sound for the decayed quantity. Requires WithAdaptive (or an adopted
// *Chain estimator).
func WithDecay(halfLife time.Duration) Option {
	return func(o *engineOptions) { o.decayHalfLife = halfLife }
}

// WithIngest mounts the parallel batch-ingest pipeline between
// Ingest/TryIngest and the estimator: a bounded multi-producer queue of
// edge batches drained by N workers through the striped locks. The zero
// config selects the pipeline defaults (GOMAXPROCS workers, 1024-edge
// batches, 4×workers queue depth).
func WithIngest(cfg IngestConfig) Option {
	return func(o *engineOptions) { c := cfg; o.ingestCfg = &c }
}

// WithWindows mounts a time-windowed store (§5): ingested edges are also
// observed by per-window partitioned sketches, and QueryWindow answers
// time-range queries. A zero cfg.Sketch inherits the Open configuration.
func WithWindows(cfg WindowConfig) Option {
	return func(o *engineOptions) { c := cfg; o.windowCfg = &c }
}

// WithWindowStore adopts an existing window store instead of building one.
func WithWindowStore(s *WindowStore) Option {
	return func(o *engineOptions) { o.windowStore = s }
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

// WithClock overrides the engine's clock (snapshot ages, recorded query
// timestamps) — for tests.
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
	if o.global && o.adaptive {
		return errors.New("gsketch: WithAdaptive needs a partitioned gSketch; it is incompatible with WithGlobal")
	}
	if o.autoInterval > 0 && !o.adaptive {
		return errors.New("gsketch: WithAutoRepartition requires WithAdaptive")
	}
	if o.autoInterval < 0 {
		return errors.New("gsketch: negative auto-repartition interval")
	}
	if o.windowCfg != nil && o.windowStore != nil {
		return errors.New("gsketch: WithWindows and WithWindowStore are mutually exclusive")
	}
	if o.decayHalfLife < 0 {
		return errors.New("gsketch: negative decay half-life")
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
	if o.lifecycleConfigured() && !o.adaptive && o.estimator == nil {
		return errors.New("gsketch: WithCompaction/WithTiering/WithDecay need a generation chain (WithAdaptive or an adopted *Chain)")
	}
	if o.snapshotOnClose && o.snapshotPath == "" {
		return errors.New("gsketch: WithSnapshotOnClose needs a snapshot path (WithSnapshotDir or WithSnapshotFile)")
	}
	return nil
}

// lifecycleConfigured reports whether any generation-lifecycle option
// (compaction, tiering, decay) was set.
func (o *engineOptions) lifecycleConfigured() bool {
	return o.compactPolicy != nil || o.tierDir != "" || o.decayHalfLife > 0
}

// buildEstimator resolves the bootstrap source into the serving estimator
// (and the chain when adaptive).
func (o *engineOptions) buildEstimator(cfg Config) (servingEstimator, *adapt.Chain, error) {
	wrap := func(g *GSketch) (servingEstimator, *adapt.Chain, error) {
		if o.adaptive {
			c := adapt.NewChain(g, o.chainCfg)
			return c, c, nil
		}
		return core.NewConcurrent(g), nil, nil
	}

	switch {
	case o.estimator != nil:
		switch v := o.estimator.(type) {
		case *adapt.Chain:
			// The chain owns its own synchronization (a Concurrent per
			// generation); wrapping it again would serialize every reader
			// and writer behind one mutex.
			return v, v, nil
		case *core.GSketch:
			return wrap(v)
		case *core.Concurrent:
			if o.adaptive {
				return nil, nil, errors.New("gsketch: WithAdaptive cannot chain a *Concurrent; pass the underlying *GSketch or a *Chain")
			}
			return v, nil, nil
		default:
			if o.adaptive {
				return nil, nil, fmt.Errorf("gsketch: WithAdaptive cannot chain a %T; pass a *GSketch or a *Chain", v)
			}
			return core.NewConcurrent(v), nil, nil
		}

	case o.restore != nil || o.restorePath != "":
		src := o.restore
		if src == nil {
			f, err := os.Open(o.restorePath)
			if err != nil {
				return nil, nil, err
			}
			defer f.Close()
			src = f
		}
		gens, metas, err := core.ReadChainMeta(src)
		if err != nil {
			return nil, nil, fmt.Errorf("gsketch: restore: %w", err)
		}
		if o.adaptive {
			c := adapt.NewChainFromMeta(gens, metas, o.chainCfg)
			return c, c, nil
		}
		if len(gens) != 1 {
			return nil, nil, fmt.Errorf("%w: snapshot carries %d generations", ErrNotAdaptive, len(gens))
		}
		return core.NewConcurrent(gens[0]), nil, nil

	case o.global:
		g, err := core.BuildGlobalSketch(cfg)
		if err != nil {
			return nil, nil, err
		}
		return core.NewConcurrent(g), nil, nil

	case o.samplePath != "":
		// The configuration is checked before the file is read, as
		// BuildGSketch checks it before it reads the sample.
		if err := cfg.Validate(); err != nil {
			return nil, nil, err
		}
		stats, err := vstats.FromFile(o.samplePath, o.sampleLimit)
		if err != nil {
			return nil, nil, sampleError("WithSampleFile "+o.samplePath, err)
		}
		g, err := core.BuildGSketchFromSampleStats(cfg, stats, o.workload)
		if err != nil {
			return nil, nil, err
		}
		return wrap(g)

	default:
		g, err := core.BuildGSketch(cfg, o.dataSample, o.workload)
		if errors.Is(err, vstats.ErrNegativeWeight) {
			return nil, nil, sampleError("WithSample", err)
		}
		if err != nil {
			return nil, nil, err
		}
		return wrap(g)
	}
}

// sampleError names the option a data sample came through in an error from
// reading it, and reports a negative weight in it as ErrNegativeWeight, as
// ingest does.
func sampleError(option string, err error) error {
	if errors.Is(err, vstats.ErrNegativeWeight) {
		return fmt.Errorf("gsketch: %s: %w (%w)", option, ErrNegativeWeight, err)
	}
	return fmt.Errorf("gsketch: %s: %w", option, err)
}
