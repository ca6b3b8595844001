// Package ingest provides the batch-ingestion pipeline every engine owns: a
// bounded multi-producer queue of edge batches drained by N workers into a
// shared estimator (normally a core.Concurrent wrapping a gSketch, whose
// partition-sharded locking lets the workers proceed in parallel), beside
// an arm for producers that fold their own batches:
//
//	producers ──PushBatch/TryPushBatch──▶ bounded channel ──▶ N workers ──┐
//	                                                                      ├──▶ Estimator.UpdateBatch
//	producer  ──Admit ─▶ (ack its client) ─▶ Apply ───────────────────────┘
//
// Every push goes through one send loop: it cuts the caller's edges into
// batches of at most BatchSize edges and queues each as it is cut, the last
// one short if the length is not a multiple of BatchSize. Nothing is held
// between calls, so a push is applied in full without a Flush. CountMin
// updates commute, so how a stream is cut into batches never changes a
// count.
//
// Backpressure on the queued arm is the channel bound: when the workers fall
// behind, PushBatch blocks (TryPushBatch sheds) instead of buffering
// unboundedly. The second arm is for a producer that already owns a goroutine
// and a whole batch — a wire connection with a decoded frame, or an engine's
// Ingest caller with its next chunk: gSketch's partitions are independent
// update domains behind an immutable router, so any goroutine can fold its own
// batch under the estimator's stripe locks, and copying the batch into the
// queue for a worker to fold buys nothing. Admit registers the batch in the
// same in-flight count the queued arm uses, Apply folds it on the caller's
// goroutine; what bounds that arm is the caller's own (one batch per Admit, one
// Apply before the next). Flush waits for everything accepted or admitted so
// far to be applied; Close waits for the same drain, stops the workers and
// makes further pushes and admissions fail with ErrClosed.
package ingest

import (
	"context"
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
	// BatchSize is the most edges one queued batch holds (default 1024): a
	// push is cut into batches of BatchSize edges and a shorter last one.
	// Larger batches amortize routing and locking further.
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
	// bufPool holds []stream.Edge buffers of cap BatchSize. By pointer: sync
	// keeps a used pool reachable through the next collection, and an
	// embedded one would keep a displaced pipeline, and dest, alive with it.
	bufPool *sync.Pool

	// mu guards closed and inflight. inflight counts batches registered
	// (queued, being sent, or admitted) but not yet applied; drained wakes
	// the Flush and Close waiters when it reaches zero. Registering under
	// the same lock that sets closed is what makes Close safe: once Close
	// has set closed and seen inflight reach zero, no sender is left and
	// the channel can be closed.
	mu       sync.Mutex
	closed   bool
	inflight int
	drained  *sync.Cond
	done     chan struct{} // closed once the first Close fully drains

	edges   atomic.Int64
	batches atomic.Int64
	sheds   atomic.Int64
}

// New starts an ingestor feeding dest. Callers stream edges with PushBatch
// or TryPushBatch and must Close (or at least Flush) before querying dest
// for final results.
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
	in.bufPool = &sync.Pool{New: func() any { return make([]stream.Edge, 0, cfg.BatchSize) }}
	in.drained = sync.NewCond(&in.mu)
	in.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go in.worker()
	}
	return in, nil
}

func (in *Ingestor) worker() {
	defer in.workers.Done()
	for batch := range in.ch {
		in.Apply(batch)
		in.bufPool.Put(batch[:0])
	}
}

// register adds one batch to the in-flight count, or fails with ErrClosed
// once Close has begun.
func (in *Ingestor) register() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	in.inflight++
	return nil
}

// retire takes one batch off the in-flight count: it was applied, or the
// send it was registered for did not happen. The zero-crossing broadcast
// wakes every Flush and Close waiting on the drain.
func (in *Ingestor) retire() {
	in.mu.Lock()
	in.inflight--
	if in.inflight == 0 {
		in.drained.Broadcast()
	}
	in.mu.Unlock()
}

// push is the one send loop behind every push. It takes edges one batch of
// at most BatchSize at a time: registers the batch, copies it into a pooled
// buffer outside the lock, and sends it. With wait it blocks until the
// queue has room; without, a full queue sheds at once, and the batch is
// retracted, so it is neither counted as accepted nor waited for. push
// returns the number of edges queued, a prefix of edges.
func (in *Ingestor) push(edges []stream.Edge, wait bool) (int, error) {
	accepted := 0
	for len(edges) > accepted {
		if err := in.register(); err != nil {
			return accepted, err
		}
		n := min(len(edges)-accepted, in.cfg.BatchSize)
		buf := append(in.bufPool.Get().([]stream.Edge), edges[accepted:accepted+n]...)
		if wait {
			in.ch <- buf
		} else {
			select {
			case in.ch <- buf:
			default:
				in.sheds.Add(1)
				in.bufPool.Put(buf[:0])
				in.retire()
				return accepted, ErrQueueFull
			}
		}
		accepted += n
	}
	return accepted, nil
}

// PushBatch copies edges into the pipeline (the caller keeps ownership of
// edges), blocking while the queue is full. It returns ErrClosed after
// Close; batches queued before that still drain.
func (in *Ingestor) PushBatch(edges []stream.Edge) error {
	_, err := in.push(edges, true)
	return err
}

// TryPushBatch copies as many edges as fit into the pipeline without ever
// blocking on a full queue. It returns the number of edges accepted (always
// a prefix of edges, applied in order) and ErrQueueFull when the queue had
// no room for the next batch, or ErrClosed after Close. Accepted edges are
// owned by the pipeline exactly as with PushBatch; rejected edges remain the
// caller's to retry.
func (in *Ingestor) TryPushBatch(edges []stream.Edge) (int, error) {
	return in.push(edges, false)
}

// Admit registers one batch the caller will fold itself with Apply, without
// copying it into the queue: from here until that Apply returns, Flush,
// FlushCtx and Close wait for it exactly as for a queued batch. It fails
// with ErrClosed after Close, so nothing is admitted into a pipeline that
// no longer drains. Every successful Admit must be paired with one Apply.
func (in *Ingestor) Admit() error { return in.register() }

// Apply folds an admitted batch into the destination on the caller's
// goroutine — whole, not re-cut to BatchSize — counts it and retires its
// Admit registration; the workers fold each queued batch through it too.
// The caller keeps ownership of batch.
func (in *Ingestor) Apply(batch []stream.Edge) {
	in.dest.UpdateBatch(batch)
	in.edges.Add(int64(len(batch)))
	in.batches.Add(1)
	in.retire()
}

// Flush blocks until the pipeline is fully drained, which covers every
// batch accepted before the call. The drain condition is global: if other
// producers keep pushing concurrently, Flush also waits for their in-flight
// batches and may not return until the pipeline next idles — quiesce
// producers first when a bounded wait matters.
func (in *Ingestor) Flush() error { return in.FlushCtx(context.Background()) }

// FlushCtx is Flush with cancellation: it waits for the pipeline to drain
// or the context to be cancelled, whichever comes first. A cancelled wait
// returns ctx.Err(); everything already accepted still drains.
func (in *Ingestor) FlushCtx(ctx context.Context) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	return in.waitDrained(ctx)
}

// waitDrained waits, with in.mu held, until inflight hits zero or ctx is
// cancelled. context.AfterFunc pokes the condition variable on cancellation
// so the waiter re-checks instead of sleeping through it.
func (in *Ingestor) waitDrained(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		in.mu.Lock()
		in.drained.Broadcast()
		in.mu.Unlock()
	})
	defer stop()
	for in.inflight > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		in.drained.Wait()
	}
	return nil
}

// Close waits for the queue to drain, stops the workers and releases the
// pipeline. Further pushes return ErrClosed. Close is idempotent, and every
// Close call blocks until the drain is complete — a second caller returns
// only once the first finishes, so "Close then read results" is safe from
// any goroutine.
func (in *Ingestor) Close() error {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		<-in.done
		return nil
	}
	in.closed = true
	_ = in.waitDrained(context.Background()) // never cancelled
	in.mu.Unlock()
	close(in.ch)
	in.workers.Wait()
	close(in.done)
	return nil
}

// Edges returns the number of edges applied to the destination so far, by
// the workers and by producers folding their own admitted batches (queued
// edges are not yet counted).
func (in *Ingestor) Edges() int64 { return in.edges.Load() }

// Batches returns the number of batches applied so far; a producer-folded
// batch counts as one, whatever its size.
func (in *Ingestor) Batches() int64 { return in.batches.Load() }

// Sheds counts TryPushBatch calls that returned ErrQueueFull — the
// load-shedding events a 429-mapping frontend has surfaced.
func (in *Ingestor) Sheds() int64 { return in.sheds.Load() }

// QueueDepth returns the number of batches currently waiting in the queue
// (enqueued but not yet picked up by a worker). Together with QueueCap it
// is the load-shedding signal: TryPushBatch starts failing when the queue
// is at capacity. Admitted batches never enter the queue and do not show
// here.
func (in *Ingestor) QueueDepth() int { return len(in.ch) }

// QueueCap returns the queue bound (Config.QueueDepth after defaulting).
func (in *Ingestor) QueueCap() int { return cap(in.ch) }

// Inflight returns the number of batches accepted but not yet fully applied
// to the destination — queued batches, those a worker is currently folding
// in, and admitted batches their producer has not applied yet. It reaches 0
// exactly when Flush would return immediately.
func (in *Ingestor) Inflight() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.inflight
}
