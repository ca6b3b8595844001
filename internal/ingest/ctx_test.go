package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// gate is an estimator whose UpdateBatch blocks until released — it wedges
// the workers so the queue fills and producers hit real backpressure.
type gate struct {
	mu      sync.Mutex
	release chan struct{}
	applied int64
}

func newGate() *gate { return &gate{release: make(chan struct{})} }

func (g *gate) UpdateBatch(edges []stream.Edge) {
	<-g.release
	g.mu.Lock()
	g.applied += int64(len(edges))
	g.mu.Unlock()
}
func (g *gate) EstimateBatch(qs []core.EdgeQuery) []core.Result { return make([]core.Result, len(qs)) }
func (g *gate) Count() int64                                    { return 0 }
func (g *gate) MemoryBytes() int                                { return 0 }

func (g *gate) total() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.applied
}

// TestPushBatchCtxCancelUnblocks is the satellite guarantee: a producer
// blocked on a full queue (which, without a context, blocks forever)
// unblocks when its context is cancelled — and no accepted edge is lost.
func TestPushBatchCtxCancelUnblocks(t *testing.T) {
	dest := newGate()
	in, err := New(dest, Config{Workers: 1, BatchSize: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Wedge the pipeline: 1 batch in the stalled worker, 1 in the queue.
	edges := make([]stream.Edge, 8)
	for i := range edges {
		edges[i] = stream.Edge{Src: uint64(i), Dst: 1, Weight: 1}
	}
	if err := in.PushBatch(edges); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan struct{})
	done := make(chan error, 1)
	var accepted int
	go func() {
		close(blocked)
		n, err := in.PushBatchCtx(ctx, edges) // 2 more batches: the send must block
		accepted = n
		done <- err
	}()
	<-blocked

	select {
	case err := <-done:
		t.Fatalf("PushBatchCtx returned (%v) with a wedged pipeline; want it blocked", err)
	case <-time.After(50 * time.Millisecond):
	}

	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("PushBatchCtx = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled PushBatchCtx still blocked — cancellation does not unblock a stalled producer")
	}

	// Release the workers: everything accepted (wedge batches + the
	// cancelled call's accepted prefix) must still drain through Close.
	close(dest.release)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(edges) + accepted)
	if got := dest.total(); got != want {
		t.Fatalf("drained %d edges, want %d (accepted prefix %d lost)", got, want, accepted)
	}
}

// TestFlushCtxCancel verifies a bounded flush: with the workers wedged the
// drain cannot complete, and a cancelled context returns instead of
// waiting forever.
func TestFlushCtxCancel(t *testing.T) {
	dest := newGate()
	in, err := New(dest, Config{Workers: 1, BatchSize: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]stream.Edge, 6)
	for i := range edges {
		edges[i] = stream.Edge{Src: uint64(i), Dst: 1, Weight: 1}
	}
	if err := in.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := in.FlushCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FlushCtx = %v, want context.DeadlineExceeded", err)
	}
	close(dest.release)
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dest.total(); got != int64(len(edges)) {
		t.Fatalf("drained %d edges, want %d", got, len(edges))
	}
}

// TestPushBatchCtxNoCancelMatchesPushBatch pins the zero-cost path: with a
// background context the context-aware entry point behaves exactly like
// PushBatch (everything accepted, then drained).
func TestPushBatchCtxNoCancelMatchesPushBatch(t *testing.T) {
	dest := newGate()
	close(dest.release) // workers never block
	in, err := New(dest, Config{Workers: 2, BatchSize: 8, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]stream.Edge, 100)
	for i := range edges {
		edges[i] = stream.Edge{Src: uint64(i), Dst: 2, Weight: 1}
	}
	n, err := in.PushBatchCtx(context.Background(), edges)
	if err != nil || n != len(edges) {
		t.Fatalf("PushBatchCtx = (%d, %v), want (%d, nil)", n, err, len(edges))
	}
	if err := in.FlushCtx(context.Background()); err != nil {
		t.Fatalf("FlushCtx = %v", err)
	}
	if got := dest.total(); got != int64(len(edges)) {
		t.Fatalf("drained %d edges, want %d", got, len(edges))
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCancelledSendThenCloseLosesNothing pins the cancelled-send/Close
// race: a producer whose cancelled send races Close must neither strand its
// batch nor hold Close forever — either the send completes against the
// still-running workers, or it is retracted and not counted as accepted.
// Every accepted edge lands.
func TestCancelledSendThenCloseLosesNothing(t *testing.T) {
	for i := 0; i < 20; i++ { // the race window is narrow; hammer it
		dest := newGate()
		in, err := New(dest, Config{Workers: 1, BatchSize: 4, QueueDepth: 1})
		if err != nil {
			t.Fatal(err)
		}
		edges := make([]stream.Edge, 8)
		for j := range edges {
			edges[j] = stream.Edge{Src: uint64(j), Dst: 1, Weight: 1}
		}
		if err := in.PushBatch(edges); err != nil { // wedge worker + queue
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		pushed := make(chan int, 1)
		go func() {
			n, _ := in.PushBatchCtx(ctx, edges[:4]) // blocks on the full queue
			pushed <- n
		}()
		closed := make(chan error, 1)
		go func() {
			time.Sleep(time.Millisecond)
			closed <- in.Close()
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		close(dest.release)
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		accepted := <-pushed
		if got, want := dest.total(), int64(len(edges)+accepted); got != want {
			t.Fatalf("round %d: drained %d edges, want %d (cancelled send lost a batch)", i, got, want)
		}
	}
}
