package ingest

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// pickupEstimator blocks every UpdateBatch on a gate like gateEstimator,
// but additionally signals when a worker picks a batch up — so a test can
// wait until the worker is provably occupied and the queue provably empty.
type pickupEstimator struct {
	started chan struct{}
	gate    chan struct{}
	edges   atomic.Int64
}

func (p *pickupEstimator) UpdateBatch(es []stream.Edge) {
	p.started <- struct{}{}
	<-p.gate
	p.edges.Add(int64(len(es)))
}
func (p *pickupEstimator) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	return make([]core.Result, len(qs))
}
func (p *pickupEstimator) Count() int64     { return p.edges.Load() }
func (p *pickupEstimator) MemoryBytes() int { return 0 }

// TestTryPushBatchExactFill drives the queue to its exact boundary: an
// offer of precisely QueueDepth full batches must land entirely (nil
// error) with the queue exactly full, and the first edge past that point
// sheds. HTTP ingest's accepted-prefix accounting leans on this
// exact-fit-accepts contract.
func TestTryPushBatchExactFill(t *testing.T) {
	const batch, depth = 4, 2
	dest := &pickupEstimator{started: make(chan struct{}, 16), gate: make(chan struct{})}
	ing, err := New(dest, Config{Workers: 1, BatchSize: batch, QueueDepth: depth})
	if err != nil {
		t.Fatal(err)
	}

	// Occupy the lone worker and wait for pickup, leaving the queue empty.
	if err := ing.PushBatch(testStream(batch, 1)); err != nil {
		t.Fatal(err)
	}
	<-dest.started
	if d := ing.QueueDepth(); d != 0 {
		t.Fatalf("QueueDepth after pickup = %d, want 0", d)
	}

	// Boundary 1: exactly depth×batch edges — the offer that fills the
	// queue to its last slot must be accepted in full with no error.
	fill := testStream(batch*depth, 2)
	if n, err := ing.TryPushBatch(fill); err != nil || n != len(fill) {
		t.Fatalf("exact queue fill = (%d, %v), want (%d, nil)", n, err, len(fill))
	}
	if d := ing.QueueDepth(); d != depth {
		t.Fatalf("QueueDepth = %d, want %d (exactly full)", d, depth)
	}

	// Boundary 2: the first edge past the exactly-full queue sheds, and
	// sheds completely.
	extra := testStream(1, 4)
	if n, err := ing.TryPushBatch(extra); !errors.Is(err, ErrQueueFull) || n != 0 {
		t.Fatalf("offer past full = (%d, %v), want (0, ErrQueueFull)", n, err)
	}

	// Release the worker; the shed edge retries in and everything lands.
	close(dest.gate)
	for rest := extra; len(rest) > 0; {
		n, err := ing.TryPushBatch(rest)
		rest = rest[n:]
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatal(err)
		}
		if errors.Is(err, ErrQueueFull) {
			runtime.Gosched()
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(batch + batch*depth + 1)
	if got := dest.Count(); got != want {
		t.Fatalf("edges applied = %d, want %d", got, want)
	}
}
