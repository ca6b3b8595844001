package gsketch

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/window"
)

// Engine errors. All are matched with errors.Is.
var (
	// ErrEngineClosed reports an operation against a closed Engine.
	ErrEngineClosed = errors.New("gsketch: engine is closed")
	// ErrNotAdaptive reports an adaptive operation (Repartition, restoring
	// a multi-generation snapshot) against an engine opened without
	// WithAdaptive.
	ErrNotAdaptive = errors.New("gsketch: engine is not adaptive (open with WithAdaptive)")
	// ErrWindowMounted reports a snapshot restore refused because a window
	// store is mounted: snapshots carry no window state, so swapping the
	// primary estimator would leave window queries answering from a
	// different history.
	ErrWindowMounted = errors.New("gsketch: restore refused while a window store is mounted (snapshots do not carry window state)")
	// ErrNoWindow reports a window query against an engine opened without
	// WithWindows.
	ErrNoWindow = errors.New("gsketch: engine has no window store (open with WithWindows)")
	// ErrNoSnapshotPath reports a Save/Restore call with no explicit path
	// on an engine opened without WithSnapshotDir.
	ErrNoSnapshotPath = errors.New("gsketch: no snapshot path (open with WithSnapshotDir or pass a path)")
	// ErrBadSnapshot reports an unreadable or corrupt snapshot stream — a
	// problem with the input, as opposed to a failure applying a snapshot
	// that decoded fine.
	ErrBadSnapshot = errors.New("gsketch: bad snapshot")
	// ErrNegativeWeight reports an ingest refused because one of its edges
	// carries a negative weight: the sketches count in the cash-register
	// model, where frequencies only grow. The whole call is refused before
	// anything is queued or applied.
	ErrNegativeWeight = errors.New("gsketch: negative edge weight")
)

// servingEstimator is the estimator surface the engine serves through: the
// batched read/write paths, the append-style read path behind
// AppendQueryBatch, and the shard gauge. Both *Concurrent and *Chain
// satisfy it, so one engine serves a bare wrapped sketch and a generation
// chain identically.
type servingEstimator interface {
	Estimator
	AppendEstimates(dst []Result, qs []EdgeQuery) []Result
	NumShards() int
}

// engineState is the swappable serving core: the estimator and the
// pipeline feeding it. Restore builds a fresh state and swaps it in under
// the engine's write lock.
type engineState struct {
	est servingEstimator
	// ing is the batch-ingest pipeline, nil when the engine was opened
	// without WithIngest (ingest then applies synchronously).
	ing *ingest.Ingestor
	// chain is non-nil when est is an adaptive generation chain.
	chain *adapt.Chain
}

// Engine is the one-handle production surface of the library: a single
// lifecycle-managed object owning the estimator (partitioned, global,
// generation-chained or windowed), the concurrency wrapper, the batch
// ingest pipeline, snapshot persistence, live workload capture and the
// adaptive repartitioning loop. Build one with Open; all methods are safe
// for concurrent use.
//
//	eng, err := gsketch.Open(cfg,
//	        gsketch.WithSample(sample),
//	        gsketch.WithIngest(gsketch.IngestConfig{}),
//	        gsketch.WithSnapshotDir("/var/lib/gsketch"))
//	defer eng.Close()
//	eng.Ingest(ctx, edges...)
//	res := eng.Query(src, dst)
type Engine struct {
	cfg  Config
	opts engineOptions

	mu sync.RWMutex // guards st swap (snapshot restore)
	st *engineState

	mgr *adapt.Manager  // nil unless adaptive
	rec *adapt.Recorder // nil unless recording
	win *window.Store   // nil unless windowed

	winMu sync.Mutex // serializes window-store access (single-writer store)

	autoStop chan struct{} // stops the auto-repartition loop; nil when off
	autoDone chan struct{} // closed when the loop goroutine has exited

	cmgr        *compact.Manager // nil unless a compaction policy is mounted
	compactStop chan struct{}    // stops the compaction loop; nil when off
	compactDone chan struct{}    // closed when the loop goroutine has exited
	compactions atomic.Int64     // completed folds, every trigger path

	// rebuildCfg is the sketch configuration compaction re-ingest rebuilds
	// use — the adaptive manager's rebuild config when one is mounted, the
	// Open configuration otherwise.
	rebuildCfg Config

	compactObsMu sync.Mutex
	compactObs   func(time.Duration)

	snapPath  string
	snapNanos atomic.Int64 // unix nanos of the last snapshot save/restore
	saved     atomic.Int64 // completed snapshot saves
	restored  atomic.Int64 // completed snapshot restores

	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// Open builds an Engine from a sketch configuration and functional
// options. Exactly one bootstrap source must be given: WithSample or
// WithSampleFile (build a partitioned gSketch, the paper's estimator, from
// a sample in memory or in an edge file), WithGlobal (the §3.2
// baseline), WithRestore / WithRestoreFile (resume from a snapshot), or
// WithEstimator (adopt an estimator built elsewhere).
//
// Everything else is composition: WithIngest mounts the batched pipeline
// behind Ingest/TryIngest, WithAdaptive turns the estimator into a
// generation chain with a drift-watching repartition manager,
// WithWorkloadRecorder samples query traffic into the §4.2 workload
// format, WithWindows mounts a time-windowed store, and WithSnapshotDir
// gives Save/Restore a home. The zero-option Open(cfg, WithSample(s)) is
// byte-identical to core.BuildGSketch wrapped in core.NewConcurrent.
func Open(cfg Config, opts ...Option) (*Engine, error) {
	o := engineOptions{now: time.Now}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}

	e := &Engine{cfg: cfg, opts: o, snapPath: o.snapshotPath}
	if o.recorderCap > 0 {
		e.rec = adapt.NewRecorder(o.recorderCap, o.recorderSeed, func() int64 { return e.opts.now().Unix() })
	}

	est, chain, err := o.buildEstimator(cfg)
	if err != nil {
		return nil, err
	}
	// The data sample steered the build and is not read again: drop it from
	// both copies of the options (the engine's, and the one the loop
	// closures below capture), or it stays reachable as long as the engine.
	// The workload sample stays — it is the adaptive manager's baseline.
	o.dataSample, e.opts.dataSample = nil, nil
	if o.lifecycleConfigured() && chain == nil {
		return nil, errors.New("gsketch: WithCompaction/WithTiering/WithDecay need a generation chain (WithAdaptive or an adopted *Chain)")
	}
	e.rebuildCfg = cfg
	if o.adaptive && (o.managerCfg.Sketch.TotalBytes != 0 || o.managerCfg.Sketch.TotalWidth != 0) {
		e.rebuildCfg = o.managerCfg.Sketch
	}
	if chain != nil {
		e.applyLifecycle(chain)
	}
	st := &engineState{est: est, chain: chain}

	if o.windowCfg != nil {
		wc := *o.windowCfg
		if wc.Sketch.TotalBytes == 0 && wc.Sketch.TotalWidth == 0 {
			wc.Sketch = cfg
		}
		win, err := window.NewStore(wc)
		if err != nil {
			return nil, fmt.Errorf("gsketch: window store: %w", err)
		}
		e.win = win
	} else if o.windowStore != nil {
		e.win = o.windowStore
	}

	// The pipeline spawns worker goroutines, so it is built after every
	// other fallible step — an Open that fails must not leak workers.
	if o.ingestCfg != nil {
		ing, err := ingest.New(est, *o.ingestCfg)
		if err != nil {
			return nil, err
		}
		st.ing = ing
	}
	e.st = st

	if chain != nil && o.adaptive {
		mc := o.managerCfg
		if mc.Sketch.TotalBytes == 0 && mc.Sketch.TotalWidth == 0 {
			mc.Sketch = cfg
		}
		if mc.Baseline == nil {
			mc.Baseline = o.workload
		}
		var live adapt.Workload // none without a recorder
		if e.rec != nil {
			live = e.rec
		}
		e.mgr = adapt.NewManager(chain, live, mc)
		if o.compactPolicy != nil {
			// Cap-pressure hook: the manager compacts instead of refusing a
			// rotation at the generation cap.
			fold := o.compactPolicy.WithDefaults().Fold
			e.mgr.SetCompactor(func() error {
				_, err := e.compactChain(fold)
				if errors.Is(err, adapt.ErrNothingToCompact) {
					return nil
				}
				return err
			})
		}
		if o.autoInterval > 0 {
			e.autoStop = make(chan struct{})
			e.autoDone = make(chan struct{})
			go func() {
				defer close(e.autoDone)
				e.mgr.Run(o.autoInterval, e.autoStop, o.autoErr)
			}()
		}
	}
	if chain != nil && o.compactPolicy != nil && o.compactPolicy.Enabled() {
		e.cmgr = compact.NewManager(engineCompactTarget{e}, *o.compactPolicy, o.now, o.compactErr)
		e.compactStop = make(chan struct{})
		e.compactDone = make(chan struct{})
		go func() {
			defer close(e.compactDone)
			e.cmgr.Run(e.compactStop)
		}()
	}
	return e, nil
}

// applyLifecycle copies the Open-time lifecycle options onto a chain. It
// runs before the chain is published (Open, Restore), so the chain's
// plain-field setters are safe.
func (e *Engine) applyLifecycle(c *adapt.Chain) {
	if e.opts.decayHalfLife > 0 {
		c.SetDecay(e.opts.decayHalfLife)
	}
	if e.opts.tierDir != "" {
		c.SetTiering(e.opts.tierDir, e.opts.tierResident)
	}
	c.SetClock(e.opts.now)
}

// engineCompactTarget adapts the engine to the compaction policy loop. It
// resolves the serving chain on every call, so the loop follows a snapshot
// restore to the replacement chain automatically.
type engineCompactTarget struct{ e *Engine }

func (t engineCompactTarget) LifecycleState(now time.Time) compact.State {
	st := t.e.state()
	if st.chain == nil {
		return compact.State{}
	}
	return st.chain.LifecycleState(now)
}

func (t engineCompactTarget) Compact(k int) (compact.Result, error) {
	res, err := t.e.compactChain(k)
	if errors.Is(err, adapt.ErrNothingToCompact) {
		return res, nil
	}
	return res, err
}

func (t engineCompactTarget) EnforceResidency() (int, error) {
	st := t.e.state()
	if st.chain == nil {
		return 0, nil
	}
	return st.chain.EnforceResidency()
}

// compactChain folds the oldest k frozen generations of the serving chain —
// the single funnel of every compaction path (manual Compact, the policy
// loop, rotation cap pressure), so the compaction counter and the duration
// observer see them all.
func (e *Engine) compactChain(k int) (compact.Result, error) {
	st := e.state()
	if st.chain == nil {
		return compact.Result{}, ErrNotAdaptive
	}
	res, err := st.chain.Compact(k, e.rebuildCfg, e.recordedWorkload())
	if err != nil {
		return res, err
	}
	if res.Folded > 0 {
		// Collect the source generations the fold dropped now. The serving
		// paths allocate next to nothing, so nothing else would prompt the
		// collector for a long while, and its goal follows the live
		// generations, reloads and rebuilds as well as the fold: on the
		// paced benchmark workload, with folds that copy nothing, peak RSS
		// read a median 111.9 MB without this line against 80.2 MB with it
		// (four alternating pairs, 2 vCPUs).
		runtime.GC()
		e.compactions.Add(1)
		e.compactObsMu.Lock()
		fn := e.compactObs
		e.compactObsMu.Unlock()
		if fn != nil {
			fn(res.Duration)
		}
	}
	return res, nil
}

// recordedWorkload is a copy of the recorder's current reservoir sample, or
// nil when recording is disabled.
func (e *Engine) recordedWorkload() []Edge {
	if e.rec == nil {
		return nil
	}
	return e.rec.Sample()
}

// state returns the current serving state under the read lock.
func (e *Engine) state() *engineState {
	e.mu.RLock()
	st := e.st
	e.mu.RUnlock()
	return st
}

// Estimator exposes the serving estimator — the concurrency wrapper (or
// generation chain) every engine method reads and writes through. It is
// the escape hatch for code that needs the raw batched surface without the
// engine's recording and lifecycle; treat it as shared with the engine.
func (e *Engine) Estimator() Estimator { return e.state().est }

// Adaptive reports whether the engine serves a generation chain with a
// repartition manager (opened with WithAdaptive).
func (e *Engine) Adaptive() bool { return e.mgr != nil }

// Generations returns the serving chain's length, or 1 for a single-sketch
// engine.
func (e *Engine) Generations() int {
	if st := e.state(); st.chain != nil {
		return st.chain.Generations()
	}
	return 1
}

// Sketch returns the serving partitioned sketch — the chain's live head,
// or the wrapped *GSketch — for callers reading layout and routing
// metadata (partition count, ordering objective). It is nil when the
// engine serves a non-gSketch estimator (WithGlobal, a custom
// WithEstimator). The sketch is shared — treat it as read-only.
func (e *Engine) Sketch() *GSketch {
	st := e.state()
	if st.chain != nil {
		return st.chain.Head()
	}
	if c, ok := st.est.(*core.Concurrent); ok {
		if g, ok := c.Unwrap().(*core.GSketch); ok {
			return g
		}
	}
	return nil
}

// HasWindow reports whether a window store is mounted (WithWindows).
func (e *Engine) HasWindow() bool { return e.win != nil }

// RecordsWorkload reports whether query traffic is being sampled into a
// workload reservoir (WithWorkloadRecorder).
func (e *Engine) RecordsWorkload() bool { return e.rec != nil }

// SnapshotPath returns the default snapshot file (WithSnapshotDir /
// WithSnapshotFile), or "" when none is configured.
func (e *Engine) SnapshotPath() string { return e.snapPath }

// Ingest folds edges into the engine. With a pipeline (WithIngest) it is
// the blocking, context-aware producer entry point: edges are batched into
// the bounded queue, and a producer blocked on a full queue unblocks when
// ctx is cancelled (accepted edges are never lost — they drain later).
// Without a pipeline the edges are applied synchronously. After Close it
// returns ErrEngineClosed; a negative weight anywhere in edges refuses the
// whole call with ErrNegativeWeight.
//
// The blocking push runs outside the engine's state lock, so a wedged
// producer never stalls the read path behind a pending Restore. The
// trade-off mirrors Restore's own contract: edges accepted by a pipeline
// that a concurrent Restore then displaces are discarded with it (use
// TryIngest, which holds the state lock across its non-blocking push,
// when the ack must land in the serving state).
func (e *Engine) Ingest(ctx context.Context, edges ...Edge) error {
	if len(edges) == 0 {
		return ctx.Err()
	}
	if err := checkWeights(edges); err != nil {
		return err
	}
	e.mu.RLock()
	if e.closed.Load() {
		e.mu.RUnlock()
		return ErrEngineClosed
	}
	st := e.st
	if st.ing == nil {
		// The synchronous path never blocks on a queue, so applying under
		// the read lock is safe and keeps Restore strictly ordered.
		defer e.mu.RUnlock()
		if err := ctx.Err(); err != nil {
			return err
		}
		st.est.UpdateBatch(edges)
		e.observeWindow(edges)
		return nil
	}
	e.mu.RUnlock()
	accepted, err := st.ing.PushBatchCtx(ctx, edges)
	// The accepted prefix will drain into the primary estimator even when
	// the push was cut short, so the window store must see it too — the
	// two read paths answer from one history.
	e.observeWindow(edges[:accepted])
	if err != nil {
		if errors.Is(err, ingest.ErrClosed) {
			if e.closed.Load() {
				return ErrEngineClosed
			}
			// The pipeline was displaced by a concurrent Restore, not
			// closed by Close: retry the remainder against the restored
			// state instead of failing a live engine.
			return e.Ingest(ctx, edges[accepted:]...)
		}
		return err
	}
	return nil
}

// TryIngest offers edges without ever blocking on a full queue. It returns
// the number of edges accepted (always a prefix, applied in order) and
// ErrIngestQueueFull when the pipeline shed the rest — the typed
// backpressure signal a serving frontend maps to 429/retry-later. Without
// a pipeline it applies synchronously and accepts everything. A negative
// weight anywhere in edges refuses the whole call with ErrNegativeWeight.
func (e *Engine) TryIngest(edges []Edge) (int, error) {
	if len(edges) == 0 {
		return 0, nil
	}
	if err := checkWeights(edges); err != nil {
		return 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return 0, ErrEngineClosed
	}
	st := e.st
	if st.ing == nil {
		st.est.UpdateBatch(edges)
		e.observeWindow(edges)
		return len(edges), nil
	}
	accepted, err := st.ing.TryPushBatch(edges)
	e.observeWindow(edges[:accepted])
	if errors.Is(err, ingest.ErrClosed) {
		return accepted, ErrEngineClosed
	}
	return accepted, err
}

// checkWeights is the ingest entry points' input check: an edge with a
// negative weight would panic the sketch it reaches (a state only a bug may
// produce there), so it is turned away here, as an error, with its batch.
func checkWeights(edges []Edge) error {
	for i := range edges {
		if edges[i].Weight < 0 {
			return fmt.Errorf("%w (edge %d of %d)", ErrNegativeWeight, i, len(edges))
		}
	}
	return nil
}

// Admission is a batch an Engine has admitted for its producer to fold:
// registered in the pipeline's in-flight count, so every Drain, snapshot,
// Restore and Close waits for it, but not copied into the queue. Apply
// folds it. The zero value owes nothing and its Apply is a no-op.
type Admission struct {
	e     *Engine
	ing   *ingest.Ingestor
	edges []Edge
}

// Admit is the producer-folds arm of ingest, for a caller that owns a
// goroutine and a whole batch and wants to acknowledge the batch before
// paying for the fold — the wire server's connection goroutines. It checks
// the batch and the engine exactly as TryIngest does, under the same state
// lock, so nothing is admitted into a pipeline a Restore has displaced; but
// where TryIngest copies the batch into the bounded queue (and sheds what
// does not fit), Admit only registers it as in flight and hands it back:
// the caller acknowledges, then calls Apply on its own goroutine, and must
// leave edges alone until Apply returns. Admission is all or nothing and
// never sheds; what bounds it is the caller, who folds one batch before
// admitting the next. From Admit on, the batch is covered by Drain,
// SaveSnapshot, Restore and Close like any accepted edge.
//
// An engine opened without WithIngest has no in-flight count to register
// in: Admit then applies the batch before it returns, like TryIngest, and
// the Admission is the zero value.
func (e *Engine) Admit(edges []Edge) (Admission, error) {
	if len(edges) == 0 {
		return Admission{}, nil
	}
	if err := checkWeights(edges); err != nil {
		return Admission{}, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return Admission{}, ErrEngineClosed
	}
	st := e.st
	if st.ing == nil {
		st.est.UpdateBatch(edges)
		e.observeWindow(edges)
		return Admission{}, nil
	}
	if err := st.ing.Admit(); err != nil {
		return Admission{}, ErrEngineClosed
	}
	return Admission{e: e, ing: st.ing, edges: edges}, nil
}

// Apply feeds the window store and folds the admitted batch into the
// estimator it was admitted to, on the caller's goroutine and in one routed
// pass; the in-flight registration is retired last, so a Drain that returns
// finds both read paths caught up. Call it exactly once.
func (a Admission) Apply() {
	if a.ing == nil {
		return
	}
	a.e.observeWindow(a.edges)
	a.ing.Apply(a.edges)
}

// observeWindow feeds accepted edges to the optional window store. The
// store is single-writer, so access is serialized; ordering violations are
// the producer's (the store requires nondecreasing window indices) and are
// swallowed — the primary estimator already absorbed the edges.
func (e *Engine) observeWindow(edges []Edge) {
	if e.win == nil || len(edges) == 0 {
		return
	}
	e.winMu.Lock()
	_ = e.win.ObserveBatch(edges)
	e.winMu.Unlock()
}

// Query answers one edge query with the bound-carrying read path.
func (e *Engine) Query(src, dst uint64) Result {
	return e.QueryBatch([]EdgeQuery{{Src: src, Dst: dst}})[0]
}

// QueryBatch answers a batch of edge queries in one routed pass, returning
// one bound-carrying Result per query in input order. When a workload
// recorder is mounted the batch is sampled into the live workload
// reservoir — the raw material of the §4.2 objective and the adaptive
// drift signal.
func (e *Engine) QueryBatch(qs []EdgeQuery) []Result {
	return e.AppendQueryBatch(make([]Result, 0, len(qs)), qs)
}

// AppendQueryBatch is QueryBatch into a caller-owned buffer: the Results
// are appended to dst, so a caller that reuses one buffer across batches
// (a serving connection, say) reads without allocating.
func (e *Engine) AppendQueryBatch(dst []Result, qs []EdgeQuery) []Result {
	if e.rec != nil {
		e.rec.Record(qs)
	}
	return e.state().est.AppendEstimates(dst, qs)
}

// Answer resolves any Query — edge, subgraph or node — in one batched pass
// and returns the value with its combined error bound and confidence.
// Constituent edge queries are recorded into the workload reservoir like
// QueryBatch's.
func (e *Engine) Answer(q Query) Response {
	return e.AnswerBatch([]Query{q})[0]
}

// AnswerBatch resolves a batch of heterogeneous queries with one routed
// estimator pass, returning Responses in input order.
func (e *Engine) AnswerBatch(qs []Query) []Response {
	est := Estimator(e.state().est)
	if e.rec != nil {
		est = recordingEstimator{est: est, rec: e.rec}
	}
	return query.AnswerBatch(est, qs)
}

// recordingEstimator tees the flattened constituent queries of an Answer
// pass into the workload recorder on their way to the estimator.
type recordingEstimator struct {
	est Estimator
	rec *adapt.Recorder
}

func (r recordingEstimator) Update(e Edge)                  { r.est.Update(e) }
func (r recordingEstimator) UpdateBatch(edges []Edge)       { r.est.UpdateBatch(edges) }
func (r recordingEstimator) EstimateEdge(s, d uint64) int64 { return r.est.EstimateEdge(s, d) }
func (r recordingEstimator) Count() int64                   { return r.est.Count() }
func (r recordingEstimator) MemoryBytes() int               { return r.est.MemoryBytes() }
func (r recordingEstimator) EstimateBatch(qs []EdgeQuery) []Result {
	r.rec.Record(qs)
	return r.est.EstimateBatch(qs)
}

// QueryWindow answers a batch of edge queries over the time range [t1, t2]
// inclusive against the mounted window store. Each overlapping window
// answers the whole batch in one routed pass and contributes its
// fractional overlap.
func (e *Engine) QueryWindow(qs []EdgeQuery, t1, t2 int64) ([]float64, error) {
	if e.win == nil {
		return nil, ErrNoWindow
	}
	e.winMu.Lock()
	defer e.winMu.Unlock()
	return e.win.EstimateBatch(qs, t1, t2), nil
}

// Window exposes the mounted window store, or nil. Access is shared with
// the engine; serialize writes with the engine's own ingest path.
func (e *Engine) Window() *WindowStore { return e.win }

// Workload returns a copy of the recorded live query-workload sample, or
// nil when recording is disabled. The sample feeds BuildGSketch's §4.2
// objective directly.
func (e *Engine) Workload() []Edge { return e.recordedWorkload() }

// WriteWorkloadTo exports the recorded workload sample in the text edge
// format partitioning accepts ("src dst weight time" lines, the input of
// WithWorkloadSample). Without a recorder it writes nothing and returns
// (0, nil); use RecordsWorkload to tell a disabled recorder from an empty
// reservoir.
func (e *Engine) WriteWorkloadTo(w io.Writer) (int64, error) {
	if e.rec == nil {
		return 0, nil
	}
	return e.rec.WriteTo(w)
}

// Save streams a consistent snapshot of the serving estimator: a chain
// container for an adaptive engine (every generation, oldest first), the
// single-sketch format otherwise. The snapshot is taken under the striped
// read locks, so a save racing live writers is still internally
// consistent. Restore (or Open with WithRestore) reads it back.
func (e *Engine) Save(w io.Writer) (int64, error) {
	st := e.state()
	if st.chain != nil {
		return st.chain.WriteTo(w)
	}
	return core.Save(st.est, w)
}

// SaveSnapshot persists a snapshot to path (or the configured default when
// path is empty) via tmp-file + rename, so a crash mid-save never clobbers
// the previous snapshot. The ingest pipeline is flushed first: the
// snapshot covers every edge accepted before the save began.
func (e *Engine) SaveSnapshot(path string) (int64, error) {
	if path == "" {
		path = e.snapPath
	}
	if path == "" {
		return 0, ErrNoSnapshotPath
	}
	if st := e.state(); st.ing != nil {
		if err := st.ing.Flush(); err != nil && !errors.Is(err, ingest.ErrClosed) {
			return 0, err
		}
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".gsketch-snap-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	n, err := e.Save(tmp)
	if err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return n, err
	}
	if err := tmp.Close(); err != nil {
		return n, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return n, err
	}
	e.snapNanos.Store(e.opts.now().UnixNano())
	e.saved.Add(1)
	return n, nil
}

// Restore swaps the serving state for a snapshot read from r: a fresh
// pipeline is built around the restored estimator, the swap happens under
// the state write lock (so no edge is accepted into a displaced pipeline),
// and the old pipeline is drained and closed afterwards. Restore
// deliberately replaces live state: edges accepted after the snapshot
// being restored was taken are discarded with it.
//
// The snapshot may carry one or more sketch generations. An adaptive
// engine restores any snapshot as a chain and rebinds its repartition
// manager (current recorded workload becomes the new drift baseline); a
// non-adaptive engine refuses multi-generation snapshots with
// ErrNotAdaptive. An engine with a window store refuses all restores with
// ErrWindowMounted — snapshots carry no window state.
func (e *Engine) Restore(r io.Reader) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if e.win != nil {
		return ErrWindowMounted
	}
	gens, metas, err := core.ReadChainMeta(r)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return e.restoreGenerations(gens, metas)
}

// RestoreSnapshot is Restore from a file (or the configured default path
// when path is empty).
func (e *Engine) RestoreSnapshot(path string) error {
	if path == "" {
		path = e.snapPath
	}
	if path == "" {
		return ErrNoSnapshotPath
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return e.Restore(f)
}

func (e *Engine) restoreGenerations(gens []*GSketch, metas []core.GenerationMeta) error {
	cur := e.state()
	var est servingEstimator
	var chain *adapt.Chain
	if cur.chain != nil {
		chain = adapt.NewChainFromMeta(gens, metas, cur.chain.Config())
		e.applyLifecycle(chain)
		est = chain
	} else {
		if len(gens) != 1 {
			return fmt.Errorf("%w: snapshot carries %d generations", ErrNotAdaptive, len(gens))
		}
		est = core.NewConcurrent(gens[0])
	}
	neu := &engineState{est: est, chain: chain}
	if e.opts.ingestCfg != nil {
		ing, err := ingest.New(est, *e.opts.ingestCfg)
		if err != nil {
			return err
		}
		neu.ing = ing
	}
	var old *engineState
	var closed bool
	swap := func() {
		e.mu.Lock()
		// Re-checked under the write lock: a Close that landed after the
		// entry check must not have a fresh pipeline swapped in behind it
		// (nothing would ever stop those workers).
		if closed = e.closed.Load(); closed {
			e.mu.Unlock()
			return
		}
		old = e.st
		e.st = neu
		e.mu.Unlock()
	}
	if e.mgr != nil && chain != nil {
		// The state flip runs inside the manager's rebuild lock: an
		// in-flight drift check or repartition finishes against the old
		// chain while it is still serving, and none can start against a
		// displaced one.
		e.mgr.Rebind(chain, e.recordedWorkload(), swap)
	} else {
		swap()
	}
	if closed {
		if neu.ing != nil {
			_ = neu.ing.Close()
		}
		return ErrEngineClosed
	}
	if old.ing != nil {
		if err := old.ing.Close(); err != nil {
			return fmt.Errorf("gsketch: draining displaced pipeline: %w", err)
		}
	}
	e.snapNanos.Store(e.opts.now().UnixNano())
	e.restored.Add(1)
	return nil
}

// Repartition rebuilds the partitioning from the chain's live data
// reservoir and the recorded query workload, and hot-swaps the result in
// as a new sketch generation — the on-demand end of the record → rebuild →
// swap loop (the auto-trigger end is WithAutoRepartition). It returns
// ErrNotAdaptive on a non-adaptive engine.
func (e *Engine) Repartition() (*RepartitionResult, error) {
	if e.mgr == nil {
		return nil, ErrNotAdaptive
	}
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	return e.mgr.Repartition()
}

// Compact folds the oldest frozen generations of the serving chain into
// one, on demand — the manual end of the generation-lifecycle loop (the
// policy end is WithCompaction). The fold width is the mounted policy's
// (default 2). A chain with fewer than two frozen generations returns a
// zero-Folded result, not an error. It returns ErrNotAdaptive on an engine
// without a generation chain.
func (e *Engine) Compact() (*CompactionResult, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	k := 2
	if p := e.opts.compactPolicy; p != nil {
		k = p.WithDefaults().Fold
	}
	res, err := e.compactChain(k)
	if errors.Is(err, adapt.ErrNothingToCompact) {
		return &res, nil
	}
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// SetCompactObserver installs fn to be called with the duration of every
// completed compaction fold, manual or policy-triggered (nil uninstalls) —
// the hook a compaction-latency histogram hangs off.
func (e *Engine) SetCompactObserver(fn func(time.Duration)) {
	e.compactObsMu.Lock()
	e.compactObs = fn
	e.compactObsMu.Unlock()
}

// Drift evaluates the current drift signals — live-vs-baseline workload
// divergence and the head's outlier read share — without acting on them.
func (e *Engine) Drift() (Drift, error) {
	if e.mgr == nil {
		return Drift{}, ErrNotAdaptive
	}
	return e.mgr.Drift(), nil
}

// SetSwapObserver installs fn to be called with the build+rotate
// duration of every completed repartition swap, manual or
// auto-triggered (nil uninstalls) — the hook a latency histogram hangs
// off. A no-op on non-adaptive engines.
func (e *Engine) SetSwapObserver(fn func(time.Duration)) {
	if e.mgr != nil {
		e.mgr.SetSwapObserver(fn)
	}
}

// IngestStats is the pipeline slice of EngineStats.
type IngestStats struct {
	// EdgesApplied and BatchesApplied count work already folded into the
	// estimator, by the queue's workers and by producers applying their own
	// admitted batches (Admit; one batch each, whatever its size).
	EdgesApplied, BatchesApplied int64
	// QueueDepth/QueueCap/PendingEdges are the queue's live backpressure
	// gauges: TryIngest starts shedding when the queue is at capacity.
	// Admitted batches never enter the queue. Inflight counts everything
	// accepted and not yet applied — queued, being folded by a worker, or
	// admitted and awaiting its producer's Apply — and is what Drain waits
	// on.
	QueueDepth, QueueCap, Inflight, PendingEdges int
	// Sheds counts load-shedding events: non-blocking pushes refused
	// with a full queue (the pipeline-side view of HTTP 429s). Admit never
	// sheds.
	Sheds int64
}

// WorkloadStats is the recorder slice of EngineStats.
type WorkloadStats struct {
	// Seen counts queries offered; Sample/Capacity describe the reservoir.
	Seen             int64
	Sample, Capacity int
}

// AdaptStats is the adaptive slice of EngineStats.
type AdaptStats struct {
	// Generations is the chain length; Repartitions counts completed
	// swaps.
	Generations  int
	Repartitions int64
	// Compactions counts completed generation folds across every trigger
	// path (manual, policy loop, rotation cap pressure).
	Compactions int64
	// ResidentGenerations counts generations whose counters are in RAM;
	// TieredGenerations counts frozen generations with a disk copy;
	// TieredBytes is the counter footprint currently off-RAM.
	ResidentGenerations int
	TieredGenerations   int
	TieredBytes         int64
	// CompactedFrom is the total source generations the current chain
	// represents — Generations plus everything compaction absorbed.
	CompactedFrom int
	// OldestFrozenAge is how long the oldest frozen generation has been
	// frozen.
	OldestFrozenAge time.Duration
	// Drift is the current drift evaluation.
	Drift Drift
}

// EngineStats is a point-in-time snapshot of the engine's gauges, the raw
// material of a /stats endpoint or metrics exporter.
type EngineStats struct {
	// StreamTotal is the stream volume folded in; Partitions the serving
	// estimator's shard count; MemoryBytes the counter footprint.
	StreamTotal int64
	Partitions  int
	MemoryBytes int
	// Ingest is nil without a pipeline (WithIngest).
	Ingest *IngestStats
	// Workload is nil without a recorder (WithWorkloadRecorder).
	Workload *WorkloadStats
	// Adapt is nil on non-adaptive engines (WithAdaptive).
	Adapt *AdaptStats
	// ReadRoutes/WriteRoutes are the routed-traffic counters when the
	// estimator exposes them — the raw drift signal.
	ReadRoutes, WriteRoutes *RouteCounts
	// LastSnapshot is the time of the last snapshot save or restore (zero
	// when none happened yet). SnapshotsSaved/SnapshotsRestored count
	// completed operations.
	LastSnapshot      time.Time
	SnapshotsSaved    int64
	SnapshotsRestored int64
}

// IngestStats reports only the pipeline gauges, or nil without a
// pipeline. Unlike Stats it never reads the estimator, so it stays
// responsive while writers hold the stripe locks.
func (e *Engine) IngestStats() *IngestStats {
	st := e.state()
	if st.ing == nil {
		return nil
	}
	return &IngestStats{
		EdgesApplied:   st.ing.Edges(),
		BatchesApplied: st.ing.Batches(),
		QueueDepth:     st.ing.QueueDepth(),
		QueueCap:       st.ing.QueueCap(),
		Inflight:       st.ing.Inflight(),
		PendingEdges:   st.ing.Pending(),
		Sheds:          st.ing.Sheds(),
	}
}

// Stats reports the engine's live gauges.
func (e *Engine) Stats() EngineStats {
	st := e.state()
	s := EngineStats{
		StreamTotal:       st.est.Count(),
		Partitions:        st.est.NumShards(),
		MemoryBytes:       st.est.MemoryBytes(),
		SnapshotsSaved:    e.saved.Load(),
		SnapshotsRestored: e.restored.Load(),
	}
	if ns := e.snapNanos.Load(); ns > 0 {
		s.LastSnapshot = time.Unix(0, ns)
	}
	s.Ingest = e.IngestStats()
	if e.rec != nil {
		s.Workload = &WorkloadStats{
			Seen:     e.rec.Seen(),
			Sample:   e.rec.Len(),
			Capacity: e.rec.Capacity(),
		}
	}
	if rs, ok := st.est.(core.RouteStatsSource); ok {
		rr, wr := rs.ReadRouteCounts(), rs.WriteRouteCounts()
		s.ReadRoutes, s.WriteRoutes = &rr, &wr
	}
	if e.mgr != nil && st.chain != nil {
		ls := st.chain.LifecycleStats()
		s.Adapt = &AdaptStats{
			Generations:         ls.Generations,
			Repartitions:        e.mgr.Repartitions(),
			Compactions:         e.compactions.Load(),
			ResidentGenerations: ls.Resident,
			TieredGenerations:   ls.Tiered,
			TieredBytes:         ls.TieredBytes,
			CompactedFrom:       ls.CompactedFrom,
			OldestFrozenAge:     ls.OldestFrozenAge,
			Drift:               e.mgr.Drift(),
		}
	}
	return s
}

// Drain flushes the ingest pipeline and waits — bounded by ctx — until
// every edge accepted or admitted before the call is applied to the
// estimator (read-your-writes). Without a pipeline it is a no-op. The drain
// condition is global: under sustained concurrent ingest the pipeline may
// not quiesce, so pass a ctx with a deadline when a bounded wait matters.
func (e *Engine) Drain(ctx context.Context) error {
	st := e.state()
	if st.ing == nil {
		return ctx.Err()
	}
	err := st.ing.FlushCtx(ctx)
	if errors.Is(err, ingest.ErrClosed) {
		return ErrEngineClosed
	}
	return err
}

// Close shuts the engine down in dependency order: the background
// compaction and adaptive auto-repartition loops are stopped first and
// awaited — so no fold or rebuild can race what follows — then the ingest
// pipeline is drained and closed (every
// accepted edge is applied), and finally, when WithSnapshotOnClose is set,
// a snapshot is persisted to the configured path. Close is idempotent;
// later calls return the first result. The read path stays usable on a
// closed engine.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.compactStop != nil {
			close(e.compactStop)
			<-e.compactDone
		}
		if e.autoStop != nil {
			close(e.autoStop)
			<-e.autoDone
		}
		e.closed.Store(true)
		if st := e.state(); st.ing != nil {
			if err := st.ing.Close(); err != nil {
				e.closeErr = err
			}
		}
		if e.opts.snapshotOnClose {
			if _, err := e.SaveSnapshot(""); err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}
