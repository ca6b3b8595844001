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
)

// Engine errors. All are matched with errors.Is.
var (
	// ErrEngineClosed reports an operation against a closed Engine.
	ErrEngineClosed = errors.New("gsketch: engine is closed")
	// ErrNotAdaptive reports Repartition, Drift or Compact on an engine
	// whose chain has no rotation policy: one opened without WithAdaptive
	// (Compact also works on an adopted *Chain).
	ErrNotAdaptive = errors.New("gsketch: engine is not adaptive (open with WithAdaptive)")
	// ErrNoWindow reports a window query against an engine opened without
	// WithWindows.
	ErrNoWindow = errors.New("gsketch: engine has no windows (open with WithWindows)")
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
// AppendQueryBatch, and the shard gauge. A *Chain satisfies it, and so
// does the mutex a foreign estimator is served behind.
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
	// ing is the batch-ingest pipeline: every accepted edge, queued by
	// TryIngest or folded by its producer (Ingest, Admit), is registered in
	// its in-flight count until applied.
	ing *ingest.Ingestor
	// chain is est as a generation chain, nil only while the engine serves
	// a foreign estimator adopted by WithEstimator.
	chain *adapt.Chain
}

// newState builds the serving state around est and a fresh pipeline
// feeding it.
func (e *Engine) newState(est servingEstimator) (*engineState, error) {
	ing, err := ingest.New(est, e.opts.ingestCfg)
	if err != nil {
		return nil, err
	}
	st := &engineState{est: est, ing: ing}
	st.chain, _ = est.(*adapt.Chain)
	return st, nil
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

	stop        chan struct{} // stops the lifecycle goroutine; nil when none runs
	done        chan struct{} // closed when the lifecycle goroutine has exited
	compactions atomic.Int64  // completed folds, every trigger path

	compactObsMu sync.Mutex
	compactObs   func(time.Duration)

	snapPath string
	saved    atomic.Int64 // completed snapshot saves
	restored atomic.Int64 // completed snapshot restores

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
// Every engine serves a generation chain (a foreign estimator adopted by
// WithEstimator aside); without a rotation policy it is static, one
// generation or a restored snapshot's. Every engine also owns one ingest
// pipeline, which WithIngest only tunes. Everything else is composition:
// WithAdaptive gives the chain a data reservoir and a drift-watching
// repartition manager, WithWorkloadRecorder samples query traffic into the
// §4.2 workload format, WithWindows makes the generations time windows, and
// WithSnapshotDir gives Save/Restore a home. The zero-option Open(cfg,
// WithSample(s)) is byte-identical to core.BuildGSketch wrapped in
// core.NewConcurrent.
func Open(cfg Config, opts ...Option) (*Engine, error) {
	o := engineOptions{now: time.Now}
	for _, opt := range opts {
		opt(&o)
	}
	if err := o.validate(); err != nil {
		return nil, err
	}

	o.ingestCfg = o.ingestCfg.WithDefaults()
	if o.windowCfg != nil {
		// Windows follow apply order: queued batches apply in queue order.
		o.ingestCfg.Workers = 1
	}
	e := &Engine{cfg: cfg, opts: o, snapPath: o.snapshotPath}
	if o.recorderCap > 0 {
		e.rec = adapt.NewRecorder(o.recorderCap, o.recorderSeed, func() int64 { return e.opts.now().Unix() })
	}

	est, err := o.buildEstimator(cfg)
	if err != nil {
		return nil, err
	}
	// The data sample steered the build and is not read again: drop it, or
	// it stays reachable as long as the engine. The workload sample stays —
	// it is the adaptive manager's baseline.
	e.opts.dataSample = nil
	chain, _ := est.(*adapt.Chain)
	if chain != nil && chain.Config().MaxGenerations > core.MaxChainGenerations {
		return nil, fmt.Errorf("gsketch: a chain cap of %d generations exceeds the %d a snapshot can hold", chain.Config().MaxGenerations, core.MaxChainGenerations)
	}
	if chain != nil {
		e.applyLifecycle(chain)
	}
	// The pipeline spawns worker goroutines, so it is built after every
	// other fallible step — an Open that fails must not leak workers.
	if e.st, err = e.newState(est); err != nil {
		return nil, err
	}

	if o.adaptive {
		var live adapt.Workload // none without a recorder
		if e.rec != nil {
			live = e.rec
		}
		e.mgr = adapt.NewManager(chain, cfg, o.workload, live, o.managerCfg)
	}
	var fold time.Duration // the compaction policy's period; 0 without a trigger
	if p := o.compactPolicy; p != nil && p.Enabled() {
		fold = p.WithDefaults().Interval
	}
	if o.autoInterval > 0 || fold > 0 {
		e.stop, e.done = make(chan struct{}), make(chan struct{})
		go e.lifecycle(o.autoInterval, fold)
	}
	return e, nil
}

// lifecycle is the engine's one background goroutine: it runs the drift
// check (every drift, WithAutoRepartition) and the compaction policy (every
// fold, WithCompaction), each on its own ticker — a policy that is off, at
// 0, has none and never fires — until Close stops it.
func (e *Engine) lifecycle(drift, fold time.Duration) {
	defer close(e.done)
	var driftC, foldC <-chan time.Time
	if drift > 0 {
		t := time.NewTicker(drift)
		defer t.Stop()
		driftC = t.C
	}
	if fold > 0 {
		t := time.NewTicker(fold)
		defer t.Stop()
		foldC = t.C
	}
	for {
		select {
		case <-e.stop:
			return
		case <-driftC:
			if _, err := e.mgr.Check(); err != nil && e.opts.autoErr != nil {
				e.opts.autoErr(err)
			}
		case <-foldC:
			// Fold until the policy stops firing, so a burst of rotations
			// converges in one tick, but at most 8 times.
			for i := 0; i < 8 && e.compactStep(); i++ {
			}
		}
	}
}

// compactStep evaluates the compaction policy once on the chain serving at
// that moment, so it follows a Restore to the replacement chain: it folds
// once when the policy fires, and otherwise enforces the residency cap, so
// cold generations keep spilling as they age out of the access window. It
// reports whether it folded; an error goes to the WithCompaction handler,
// and a refused fold goes there once, until the chain's generations change.
func (e *Engine) compactStep() bool {
	p := e.opts.compactPolicy.WithDefaults()
	chain := e.state().chain
	var res compact.Result
	var err error
	if p.Triggered(chain.LifecycleState()) {
		res, err = chain.CompactOnce(p.Fold, e.cfg, e.recordedWorkload())
	}
	if err == nil && res.Folded == 0 {
		_, err = chain.EnforceResidency()
	}
	if err != nil && e.opts.compactErr != nil {
		e.opts.compactErr(err)
	}
	return res.Folded > 0
}

// applyLifecycle copies the Open-time lifecycle options onto a chain. It
// runs before the chain is published (Open, Restore), so the chain's
// plain-field setters are safe.
func (e *Engine) applyLifecycle(c *adapt.Chain) {
	if e.opts.tierDir != "" {
		c.SetTiering(e.opts.tierDir, e.opts.tierResident)
	}
	if w := e.opts.windowCfg; w != nil {
		c.SetWindows(w.Span, e.cfg)
	}
	fold := 0 // without a policy, a rotation at the cap refuses
	if p := e.opts.compactPolicy; p != nil {
		fold = p.WithDefaults().Fold
	}
	c.SetCompaction(fold, e.folded)
	c.SetClock(e.opts.now)
}

// folded observes every completed fold of the serving chain — manual
// Compact, the policy tick, a rotation at the cap — so the compaction
// counter and the duration observer see them all.
func (e *Engine) folded(res compact.Result) {
	// Collect the source generations the fold dropped now. The serving
	// paths allocate next to nothing, so nothing else would prompt the
	// collector for a long while, and its goal follows the live
	// generations, reloads and rebuilds as well as the fold: on the paced
	// benchmark workload, with folds that copy nothing, peak RSS read a
	// median 111.9 MB without this line against 80.2 MB with it (four
	// alternating pairs, 2 vCPUs).
	runtime.GC()
	e.compactions.Add(1)
	e.compactObsMu.Lock()
	fn := e.compactObs
	e.compactObsMu.Unlock()
	if fn != nil {
		fn(res.Duration)
	}
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

// Estimator exposes the serving estimator — the generation chain (or the
// mutex around a foreign estimator) every engine method reads and writes
// through. It is the escape hatch for code that needs the raw batched
// surface without the engine's recording and lifecycle; treat it as shared
// with the engine.
func (e *Engine) Estimator() Estimator { return e.state().est }

// Adaptive reports whether the engine serves a generation chain with a
// repartition manager (opened with WithAdaptive).
func (e *Engine) Adaptive() bool { return e.mgr != nil }

// Generations returns the serving chain's length, or 1 while the engine
// serves a foreign estimator.
func (e *Engine) Generations() int {
	if st := e.state(); st.chain != nil {
		return st.chain.Generations()
	}
	return 1
}

// Sketch returns the serving sketch — the chain's live head, which has no
// partitions under WithGlobal — for callers reading layout and routing
// metadata (partition count, ordering objective). It is nil only while the
// engine serves a foreign estimator adopted by WithEstimator. The sketch is
// shared — treat it as read-only.
func (e *Engine) Sketch() *GSketch {
	if st := e.state(); st.chain != nil {
		return st.chain.Head()
	}
	return nil
}

// HasWindow reports whether the engine's generations are time windows
// (WithWindows).
func (e *Engine) HasWindow() bool { return e.opts.windowCfg != nil }

// RecordsWorkload reports whether query traffic is being sampled into a
// workload reservoir (WithWorkloadRecorder).
func (e *Engine) RecordsWorkload() bool { return e.rec != nil }

// SnapshotPath returns the default snapshot file (WithSnapshotDir /
// WithSnapshotFile), or "" when none is configured.
func (e *Engine) SnapshotPath() string { return e.snapPath }

// Ingest folds edges into the engine and returns with them applied
// (read-your-writes). It cuts edges into chunks of the pipeline's BatchSize
// and, for each, checks ctx, admits the chunk and folds it on the caller's
// goroutine — Admit then Apply — so a producer pays for its own fold
// instead of waiting on a queue. Each chunk is admitted under the state
// lock into the pipeline serving at that moment: a Restore between chunks
// waits for the chunk before it, which lands in the displaced state, and
// the rest of the call goes to the restored one. When ctx ends between
// chunks the error is an *IngestCanceledError naming how many edges were
// applied and wrapping the context's error. After Close it returns
// ErrEngineClosed; a negative weight anywhere in edges refuses the whole
// call with ErrNegativeWeight.
func (e *Engine) Ingest(ctx context.Context, edges ...Edge) error {
	if len(edges) == 0 {
		return ctx.Err()
	}
	if err := checkWeights(edges); err != nil {
		return err
	}
	size := e.opts.ingestCfg.BatchSize
	for lo := 0; lo < len(edges); lo += size {
		if err := ctx.Err(); err != nil {
			return &IngestCanceledError{Accepted: lo, Err: err}
		}
		adm, err := e.admit(edges[lo:min(lo+size, len(edges))])
		if err != nil {
			return err
		}
		adm.Apply()
	}
	return nil
}

// IngestCanceledError is Ingest's error when its context ends before every
// edge is applied: the first Accepted edges were applied, the rest were
// dropped. It wraps the context's error.
type IngestCanceledError struct {
	Accepted int
	Err      error
}

func (e *IngestCanceledError) Error() string {
	return fmt.Sprintf("gsketch: ingest cut short after %d edges: %v", e.Accepted, e.Err)
}

func (e *IngestCanceledError) Unwrap() error { return e.Err }

// TryIngest offers edges without ever blocking on a full queue. It returns
// the number of edges accepted (always a prefix, applied in order) and
// ErrIngestQueueFull when the pipeline shed the rest — the typed
// backpressure signal a serving frontend maps to 429/retry-later. Edges are
// queued in batches of at most the pipeline's BatchSize, so the accepted
// prefix is a whole number of batches, or all of edges, and the workers
// apply all of it after the call returns: Drain to read it. A negative
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
	accepted, err := e.st.ing.TryPushBatch(edges)
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
// SaveSnapshot, Restore and Close like any accepted edge. Ingest is this
// arm run chunk by chunk on its caller.
func (e *Engine) Admit(edges []Edge) (Admission, error) {
	if len(edges) == 0 {
		return Admission{}, nil
	}
	if err := checkWeights(edges); err != nil {
		return Admission{}, err
	}
	return e.admit(edges)
}

// admit registers a checked, non-empty batch in the serving pipeline under
// the state lock.
func (e *Engine) admit(edges []Edge) (Admission, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed.Load() {
		return Admission{}, ErrEngineClosed
	}
	if err := e.st.ing.Admit(); err != nil {
		return Admission{}, ErrEngineClosed
	}
	return Admission{ing: e.st.ing, edges: edges}, nil
}

// Apply folds the admitted batch into the estimator it was admitted to, on
// the caller's goroutine and in one routed pass; the in-flight registration
// is retired last, so a Drain that returns finds it applied. Call it exactly
// once.
func (a Admission) Apply() {
	if len(a.edges) > 0 {
		a.ing.Apply(a.edges)
	}
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

func (r recordingEstimator) UpdateBatch(edges []Edge) { r.est.UpdateBatch(edges) }
func (r recordingEstimator) Count() int64             { return r.est.Count() }
func (r recordingEstimator) MemoryBytes() int         { return r.est.MemoryBytes() }
func (r recordingEstimator) EstimateBatch(qs []EdgeQuery) []Result {
	r.rec.Record(qs)
	return r.est.EstimateBatch(qs)
}

// QueryWindow answers a batch of edge queries over the time range [t1, t2]
// inclusive: each window answers the batch in one routed pass, weighted by
// the share of its times the range covers, so a range over every window
// reads what QueryBatch reads. Like QueryBatch, it sees applied edges only:
// Drain first to read a TryIngest's.
func (e *Engine) QueryWindow(qs []EdgeQuery, t1, t2 int64) ([]float64, error) {
	if !e.HasWindow() {
		return nil, ErrNoWindow
	}
	res := e.state().chain.EstimateWindow(qs, t1, t2)
	out := make([]float64, len(res))
	for i := range res {
		out[i] = float64(res[i].Estimate)
	}
	return out, nil
}

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

// Save streams a consistent snapshot of the serving chain as a version-4
// chain container: every generation, oldest first, each with its window.
// The snapshot is taken under the striped read locks, so a save racing
// live writers is still internally consistent. Restore (or Open with
// WithRestore) reads it back. A foreign estimator does not serialize.
func (e *Engine) Save(w io.Writer) (int64, error) {
	st := e.state()
	if st.chain == nil {
		return 0, fmt.Errorf("gsketch: estimator %T does not serialize", st.est)
	}
	return st.chain.WriteTo(w)
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
	if err := e.state().ing.Flush(); err != nil && !errors.Is(err, ingest.ErrClosed) {
		return 0, err
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
	e.saved.Add(1)
	return n, nil
}

// Restore swaps the serving state for a snapshot read from r: a fresh
// pipeline is built around the restored estimator, the swap happens under
// the state write lock (so no edge is accepted into a displaced pipeline),
// and the old pipeline is drained and closed afterwards; then the
// displaced chain's tier files are removed. Restore deliberately replaces
// live state: edges accepted after the snapshot being restored was taken
// are discarded with it.
//
// The snapshot may carry one or more sketch generations, and every engine
// serves them all as its chain. An adaptive engine rebinds its repartition
// manager (current recorded workload becomes the new drift baseline), and
// a windowed engine takes them as its windows.
func (e *Engine) Restore(r io.Reader) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	gens, metas, err := core.ReadChainMeta(r)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	chain := adapt.NewStaticChain(gens, metas)
	if cur := e.state().chain; cur != nil {
		chain = cur.Like(gens, metas)
	}
	e.applyLifecycle(chain)
	neu, err := e.newState(chain)
	if err != nil {
		return err
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
	if e.mgr != nil {
		// The state flip runs inside the manager's rebuild lock: an
		// in-flight drift check or repartition finishes against the old
		// chain while it is still serving, and none can start against a
		// displaced one.
		e.mgr.Rebind(chain, e.recordedWorkload(), swap)
	} else {
		swap()
	}
	if closed {
		_ = neu.ing.Close()
		return ErrEngineClosed
	}
	if err := old.ing.Close(); err != nil {
		return fmt.Errorf("gsketch: draining displaced pipeline: %w", err)
	}
	if old.chain != nil {
		// Drained: nothing writes the displaced chain again.
		old.chain.Discard()
	}
	e.restored.Add(1)
	return nil
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
// zero-Folded result, not an error. It returns ErrNotAdaptive unless the
// engine is adaptive or serves an adopted *Chain.
func (e *Engine) Compact() (*CompactionResult, error) {
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if !e.opts.managedChain() {
		return nil, ErrNotAdaptive
	}
	k := 2
	if p := e.opts.compactPolicy; p != nil {
		k = p.WithDefaults().Fold
	}
	res, err := e.state().chain.Compact(k, e.cfg, e.recordedWorkload())
	if err != nil && !errors.Is(err, adapt.ErrNothingToCompact) {
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
	// admitted batches (an Admit, or one chunk of an Ingest, counts as one
	// batch, whatever its size).
	EdgesApplied, BatchesApplied int64
	// QueueDepth/QueueCap are the queue's live backpressure gauges:
	// TryIngest sheds when the queue is at capacity. Admitted batches never
	// enter the queue. Inflight counts everything accepted and not yet
	// applied — queued, being folded by a worker, or admitted and awaiting
	// its producer's Apply — and is what Drain waits on. Nothing is held
	// outside these counts: every accepted edge is in an in-flight batch.
	QueueDepth, QueueCap, Inflight int
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

// AdaptStats is the generation-chain slice of EngineStats.
type AdaptStats struct {
	// Generations is the chain length; Repartitions counts completed
	// swaps.
	Generations  int
	Repartitions int64
	// Compactions counts completed generation folds across every trigger
	// path (manual, policy tick, a rotation at the cap).
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
	// Ingest is the pipeline's gauges.
	Ingest *IngestStats
	// Workload is nil without a recorder (WithWorkloadRecorder).
	Workload *WorkloadStats
	// Adapt describes the serving chain, and a foreign estimator as one
	// resident generation. Without WithAdaptive, Repartitions and Drift
	// stay zero.
	Adapt *AdaptStats
	// ReadRoutes/WriteRoutes are the routed-traffic counters when the
	// estimator exposes them — the raw drift signal.
	ReadRoutes, WriteRoutes *RouteCounts
	// SnapshotsSaved/SnapshotsRestored count completed snapshot
	// operations.
	SnapshotsSaved    int64
	SnapshotsRestored int64
}

// IngestStats reports only the pipeline gauges. Unlike Stats it never
// reads the estimator, so it stays responsive while writers hold the stripe
// locks.
func (e *Engine) IngestStats() *IngestStats {
	ing := e.state().ing
	return &IngestStats{
		EdgesApplied:   ing.Edges(),
		BatchesApplied: ing.Batches(),
		QueueDepth:     ing.QueueDepth(),
		QueueCap:       ing.QueueCap(),
		Inflight:       ing.Inflight(),
		Sheds:          ing.Sheds(),
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
	// A foreign estimator reads as one resident generation.
	ls := adapt.ChainLifecycleStats{Generations: 1, Resident: 1, CompactedFrom: 1}
	if st.chain != nil {
		ls = st.chain.LifecycleStats()
	}
	s.Adapt = &AdaptStats{
		Generations:         ls.Generations,
		Compactions:         e.compactions.Load(),
		ResidentGenerations: ls.Resident,
		TieredGenerations:   ls.Tiered,
		TieredBytes:         ls.TieredBytes,
		CompactedFrom:       ls.CompactedFrom,
		OldestFrozenAge:     ls.OldestFrozenAge,
	}
	if e.mgr != nil {
		s.Adapt.Repartitions = e.mgr.Repartitions()
		s.Adapt.Drift = e.mgr.Drift()
	}
	return s
}

// Drain waits — bounded by ctx — until every edge accepted or admitted
// before the call is applied to the estimator (read-your-writes). The drain
// condition is global: under sustained concurrent ingest the pipeline may
// not quiesce, so pass a ctx with a deadline when a bounded wait matters.
func (e *Engine) Drain(ctx context.Context) error {
	err := e.state().ing.FlushCtx(ctx)
	if errors.Is(err, ingest.ErrClosed) {
		return ErrEngineClosed
	}
	return err
}

// Close shuts the engine down in dependency order: the lifecycle goroutine
// (drift check and compaction policy) is stopped first and awaited — so no
// fold or rebuild can race what follows — then the ingest pipeline is
// drained and closed (every accepted edge is applied), and finally, when
// WithSnapshotOnClose is set, a snapshot is persisted to the configured
// path. Close is idempotent; later calls return the first result. The read
// path stays usable on a closed engine.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		if e.stop != nil {
			close(e.stop)
			<-e.done
		}
		e.closed.Store(true)
		if err := e.state().ing.Close(); err != nil {
			e.closeErr = err
		}
		if e.opts.snapshotOnClose {
			if _, err := e.SaveSnapshot(""); err != nil && e.closeErr == nil {
				e.closeErr = err
			}
		}
	})
	return e.closeErr
}
