// Package ingest provides the parallel batch-ingestion pipeline: a bounded
// multi-producer queue of edge batches drained by N workers into a shared
// estimator (normally a core.Concurrent wrapping a gSketch, whose
// partition-sharded locking lets the workers proceed in parallel).
//
// The pipeline decouples stream arrival from counter mutation:
//
//	producers ──Push/PushBatch──▶ bounded channel ──▶ N workers ──┐
//	                                                              ├──▶ Estimator.UpdateBatch
//	producer  ──Admit ─▶ (ack its client) ─▶ Apply ───────────────┘
//
// Backpressure on the queued arm is the channel bound: when the workers
// fall behind, Push blocks (TryPush sheds) instead of buffering
// unboundedly. The second arm is for a producer that already owns a
// goroutine and a whole batch — a wire connection with a decoded frame:
// gSketch's partitions are independent update domains behind an immutable
// router, so any goroutine can fold its own batch under the estimator's
// stripe locks, and copying the batch into the queue for a worker to fold
// buys nothing. Admit registers the batch in the same in-flight count the
// queued arm uses, Apply folds it on the caller's goroutine; what bounds
// that arm is the caller's own (one batch per Admit, one Apply before the
// next). Flush waits for everything accepted or admitted so far to be
// applied; Close flushes, stops the workers and makes further pushes and
// admissions fail with ErrClosed.
package ingest

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// ErrClosed reports a push or flush against a closed ingestor.
var ErrClosed = errors.New("ingest: ingestor is closed")

// ErrQueueFull reports that a non-blocking push could not enqueue a batch
// because the pipeline is at capacity. It is the typed shed-load signal:
// callers that must not block (a serving frontend mapping backpressure to
// 429, say) test for it with errors.Is and retry later, while ErrClosed
// stays a hard failure.
var ErrQueueFull = errors.New("ingest: queue full")

// Config parameterizes an Ingestor. The zero value selects sensible
// defaults for every field.
type Config struct {
	// Workers is the number of goroutines applying batches (default
	// GOMAXPROCS). With a sharded Concurrent target, workers contend only
	// when their batches collide on a partition.
	Workers int
	// BatchSize is the number of edges buffered per Push before a batch is
	// enqueued (default 1024). Larger batches amortize routing and locking
	// further at the cost of ingest-to-visibility latency.
	BatchSize int
	// QueueDepth is the bound of the batch channel (default 4×Workers).
	// Once QueueDepth batches are in flight, pushes block — the pipeline's
	// backpressure.
	QueueDepth int
}

// WithDefaults returns c with every zero field set to its default: the
// configuration New runs.
func (c Config) WithDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1024
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Workers
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Workers < 0 || c.BatchSize < 0 || c.QueueDepth < 0 {
		return fmt.Errorf("ingest: negative config value (workers=%d batch=%d queue=%d)",
			c.Workers, c.BatchSize, c.QueueDepth)
	}
	return nil
}

// Ingestor is the multi-producer, N-worker batch pipeline. All methods are
// safe for concurrent use.
type Ingestor struct {
	dest core.Estimator
	cfg  Config

	ch      chan []stream.Edge
	workers sync.WaitGroup
	bufPool sync.Pool // []stream.Edge with cap = BatchSize

	mu      sync.Mutex
	pending []stream.Edge
	closed  bool
	done    chan struct{} // closed once the first Close fully drains

	// inflight counts batches enqueued or admitted but not yet applied;
	// drained tracks Flush waiters. A plain counter + cond (rather than a
	// WaitGroup) keeps concurrent Push/Flush free of the Add-after-Wait
	// caveat.
	inflight   int
	inflightMu sync.Mutex
	drained    *sync.Cond

	edges   atomic.Int64
	batches atomic.Int64
	sheds   atomic.Int64
}

// New starts an ingestor feeding dest. Callers stream edges with Push or
// PushBatch and must Close (or at least Flush) before querying dest for
// final results.
func New(dest core.Estimator, cfg Config) (*Ingestor, error) {
	if dest == nil {
		return nil, errors.New("ingest: nil destination estimator")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	in := &Ingestor{
		dest: dest,
		cfg:  cfg,
		ch:   make(chan []stream.Edge, cfg.QueueDepth),
		done: make(chan struct{}),
	}
	in.bufPool.New = func() any { return make([]stream.Edge, 0, cfg.BatchSize) }
	in.drained = sync.NewCond(&in.inflightMu)
	in.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go in.worker()
	}
	return in, nil
}

func (in *Ingestor) worker() {
	defer in.workers.Done()
	for batch := range in.ch {
		in.dest.UpdateBatch(batch)
		in.edges.Add(int64(len(batch)))
		in.batches.Add(1)
		in.bufPool.Put(batch[:0])
		in.subInflight()
	}
}

// addInflight registers a batch about to be sent. It is called while in.mu
// is held, so the closed check and the inflight increment are atomic with
// respect to Close — once Close observes inflight == 0 after setting
// closed, no further sends can occur and the channel is safe to close.
func (in *Ingestor) addInflight() {
	in.inflightMu.Lock()
	in.inflight++
	in.inflightMu.Unlock()
}

// subInflight retires a registration made by addInflight: the batch was
// applied (by a worker, or by the producer that admitted it), or the
// non-blocking send it covered did not happen. The zero-crossing broadcast
// wakes every Flush waiting on the drain, including one that started
// waiting between the add and a retraction.
func (in *Ingestor) subInflight() {
	in.inflightMu.Lock()
	in.inflight--
	if in.inflight == 0 {
		in.drained.Broadcast()
	}
	in.inflightMu.Unlock()
}

// Admit registers one batch the caller will fold itself with Apply, without
// copying it into the queue: from here until that Apply returns, Flush,
// FlushCtx and Close wait for it exactly as for a queued batch. It fails
// with ErrClosed after Close, so nothing is admitted into a pipeline that
// no longer drains. Every successful Admit must be paired with one Apply.
func (in *Ingestor) Admit() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	in.addInflight()
	return nil
}

// Apply folds an admitted batch into the destination on the caller's
// goroutine — whole, not re-cut to BatchSize — counts it as a worker would
// and retires its Admit registration. The caller keeps ownership of batch.
func (in *Ingestor) Apply(batch []stream.Edge) {
	in.dest.UpdateBatch(batch)
	in.edges.Add(int64(len(batch)))
	in.batches.Add(1)
	in.subInflight()
}

// Push buffers one edge, enqueuing a batch every BatchSize edges. It blocks
// when the pipeline is at capacity and returns ErrClosed after Close.
func (in *Ingestor) Push(e stream.Edge) error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ErrClosed
	}
	if in.pending == nil {
		in.pending = in.bufPool.Get().([]stream.Edge)
	}
	in.pending = append(in.pending, e)
	var full []stream.Edge
	if len(in.pending) >= in.cfg.BatchSize {
		full = in.pending
		in.pending = nil
		in.addInflight()
	}
	in.mu.Unlock()
	if full != nil {
		in.ch <- full
	}
	return nil
}

// PushBatch copies a slice of edges into the pipeline (the caller keeps
// ownership of edges) and enqueues every full batch it completes.
//
// Full batches take a fast path: the producer mutex covers only the
// closed-check and the in-flight registration, and the copy into the
// pooled batch buffer happens outside it, so concurrent producers
// serialize on a few instructions instead of a BatchSize memcpy.
func (in *Ingestor) PushBatch(edges []stream.Edge) error {
	for len(edges) >= in.cfg.BatchSize {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return ErrClosed
		}
		if len(in.pending) != 0 {
			// A partial batch is buffered; fall through to the slow path so
			// this producer's earlier edges stay ahead of these.
			in.mu.Unlock()
			break
		}
		in.addInflight()
		in.mu.Unlock()
		buf := in.bufPool.Get().([]stream.Edge)
		buf = append(buf, edges[:in.cfg.BatchSize]...)
		edges = edges[in.cfg.BatchSize:]
		in.ch <- buf
	}
	for len(edges) > 0 {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return ErrClosed
		}
		if in.pending == nil {
			in.pending = in.bufPool.Get().([]stream.Edge)
		}
		// A cancelled PushBatchCtx may have re-buffered an over-full batch,
		// so room can be negative: buffer nothing this round and let the
		// enqueue below push the oversized pending through.
		room := in.cfg.BatchSize - len(in.pending)
		if room < 0 {
			room = 0
		}
		if room > len(edges) {
			room = len(edges)
		}
		in.pending = append(in.pending, edges[:room]...)
		edges = edges[room:]
		var full []stream.Edge
		if len(in.pending) >= in.cfg.BatchSize {
			full = in.pending
			in.pending = nil
			in.addInflight()
		}
		in.mu.Unlock()
		if full != nil {
			in.ch <- full
		}
	}
	return nil
}

// TryPush offers one edge without blocking. It returns ErrQueueFull when
// accepting the edge would complete a batch that the queue cannot take
// right now; the edge is not consumed and the caller may retry.
func (in *Ingestor) TryPush(e stream.Edge) error {
	accepted, err := in.TryPushBatch([]stream.Edge{e})
	if accepted == 1 {
		return nil
	}
	return err
}

// TryPushBatch copies as many edges as fit into the pipeline without ever
// blocking on a full queue. It returns the number of edges accepted (always
// a prefix of edges, applied in order) and ErrQueueFull when capacity ran
// out before the rest could be buffered, or ErrClosed after Close. Accepted
// edges are owned by the pipeline exactly as with PushBatch; rejected edges
// remain the caller's to retry.
func (in *Ingestor) TryPushBatch(edges []stream.Edge) (int, error) {
	accepted := 0
	// Fast path, mirroring PushBatch: full batches are copied outside the
	// producer mutex and offered to the queue directly. A full queue falls
	// back to the buffering loop below, so the accept/shed semantics stay
	// exactly those of the slow path (one batch can always park in
	// pending).
fast:
	for len(edges) >= in.cfg.BatchSize {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return accepted, ErrClosed
		}
		if len(in.pending) != 0 {
			in.mu.Unlock()
			break
		}
		in.addInflight()
		in.mu.Unlock()
		buf := in.bufPool.Get().([]stream.Edge)
		buf = append(buf, edges[:in.cfg.BatchSize]...)
		select {
		case in.ch <- buf:
			accepted += in.cfg.BatchSize
			edges = edges[in.cfg.BatchSize:]
		default:
			in.bufPool.Put(buf[:0])
			in.subInflight()
			break fast
		}
	}
	for {
		in.mu.Lock()
		if in.closed {
			in.mu.Unlock()
			return accepted, ErrClosed
		}
		// Drain a completed batch first (a previous TryPushBatch may have
		// left pending exactly full after a failed enqueue).
		if len(in.pending) >= in.cfg.BatchSize {
			full := in.pending
			in.addInflight()
			select {
			case in.ch <- full:
				in.pending = nil
			default:
				in.subInflight()
				in.mu.Unlock()
				if len(edges) == 0 {
					// Everything offered was buffered; the failed drain
					// was opportunistic, not a shed — Flush will push the
					// full pending batch through.
					return accepted, nil
				}
				in.sheds.Add(1)
				return accepted, ErrQueueFull
			}
		}
		if len(edges) == 0 {
			in.mu.Unlock()
			return accepted, nil
		}
		if in.pending == nil {
			in.pending = in.bufPool.Get().([]stream.Edge)
		}
		room := in.cfg.BatchSize - len(in.pending)
		if room > len(edges) {
			room = len(edges)
		}
		in.pending = append(in.pending, edges[:room]...)
		edges = edges[room:]
		accepted += room
		in.mu.Unlock()
	}
}

// Flush enqueues any partial batch and blocks until the pipeline is fully
// drained, which covers every batch accepted before the call. The drain
// condition is global: if other producers keep pushing concurrently, Flush
// also waits for their in-flight batches and may not return until the
// pipeline next idles — quiesce producers first when a bounded wait
// matters.
func (in *Ingestor) Flush() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return ErrClosed
	}
	partial := in.pending
	in.pending = nil
	if len(partial) > 0 {
		in.addInflight()
	}
	in.mu.Unlock()
	if len(partial) > 0 {
		in.ch <- partial
	} else if partial != nil {
		in.bufPool.Put(partial[:0])
	}
	in.waitDrained()
	return nil
}

func (in *Ingestor) waitDrained() {
	in.inflightMu.Lock()
	for in.inflight > 0 {
		in.drained.Wait()
	}
	in.inflightMu.Unlock()
}

// Close flushes buffered edges, waits for the queue to drain, stops the
// workers and releases the pipeline. Further pushes return ErrClosed.
// Close is idempotent, and every Close call blocks until the drain is
// complete — a second caller returns only once the first finishes, so
// "Close then read results" is safe from any goroutine.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		<-in.done
		return nil
	}
	in.closed = true
	partial := in.pending
	in.pending = nil
	if len(partial) > 0 {
		in.addInflight()
	}
	in.mu.Unlock()
	if len(partial) > 0 {
		in.ch <- partial
	}
	in.waitDrained()
	close(in.ch)
	in.workers.Wait()
	close(in.done)
	return nil
}

// Edges returns the number of edges applied to the destination so far, by
// the workers and by producers folding their own admitted batches (buffered
// and in-flight edges are not yet counted).
func (in *Ingestor) Edges() int64 { return in.edges.Load() }

// Batches returns the number of batches applied so far; a producer-folded
// batch counts as one, whatever its size.
func (in *Ingestor) Batches() int64 { return in.batches.Load() }

// Sheds counts TryPush/TryPushBatch calls that returned ErrQueueFull —
// the load-shedding events a 429-mapping frontend has surfaced.
func (in *Ingestor) Sheds() int64 { return in.sheds.Load() }

// QueueDepth returns the number of batches currently waiting in the queue
// (enqueued but not yet picked up by a worker). Together with QueueCap it
// is the load-shedding signal: TryPush starts failing when the queue is at
// capacity. Admitted batches never enter the queue and do not show here.
func (in *Ingestor) QueueDepth() int { return len(in.ch) }

// QueueCap returns the queue bound (Config.QueueDepth after defaulting).
func (in *Ingestor) QueueCap() int { return cap(in.ch) }

// Inflight returns the number of batches accepted but not yet fully applied
// to the destination — queued batches, those a worker is currently folding
// in, and admitted batches their producer has not applied yet. It reaches 0
// exactly when Flush would return immediately.
func (in *Ingestor) Inflight() int {
	in.inflightMu.Lock()
	n := in.inflight
	in.inflightMu.Unlock()
	return n
}

// Pending returns the number of edges buffered toward the next batch (not
// yet enqueued; Flush pushes them through).
func (in *Ingestor) Pending() int {
	in.mu.Lock()
	n := len(in.pending)
	in.mu.Unlock()
	return n
}

// Workers returns the resolved worker count.
func (in *Ingestor) Workers() int { return in.cfg.Workers }

// BatchSize returns the resolved batch size.
func (in *Ingestor) BatchSize() int { return in.cfg.BatchSize }
