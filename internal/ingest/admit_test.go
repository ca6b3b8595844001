package ingest

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/stream"
)

// returnsBefore reports whether fn, started on its own goroutine, came back
// within d; done is closed when it does.
func returnsBefore(d time.Duration, fn func()) (returned bool, done <-chan struct{}) {
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		fn()
	}()
	select {
	case <-ch:
		return true, ch
	case <-time.After(d):
		return false, ch
	}
}

// TestAdmitApplyCountsAndDrains checks the producer-folds arm against the
// queued one: an admitted batch is in flight until applied, is applied
// whole, counts in Edges/Batches as a worker's would, and never shows in
// the queue or the shed counter.
func TestAdmitApplyCountsAndDrains(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 64, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(1000, 7) // far past BatchSize × QueueDepth

	if err := ing.Admit(); err != nil {
		t.Fatal(err)
	}
	if got := ing.Inflight(); got != 1 {
		t.Fatalf("Inflight after Admit = %d, want 1", got)
	}
	if got := ing.QueueDepth(); got != 0 {
		t.Fatalf("QueueDepth after Admit = %d, want 0: an admitted batch never enters the queue", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := ing.FlushCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("FlushCtx over an admitted, unapplied batch = %v, want deadline exceeded", err)
	}
	cancel()

	ing.Apply(edges)
	if err := ing.Flush(); err != nil {
		t.Fatal(err)
	}
	if ing.Inflight() != 0 || ing.Edges() != int64(len(edges)) || ing.Batches() != 1 || ing.Sheds() != 0 {
		t.Fatalf("after Apply: inflight=%d edges=%d batches=%d sheds=%d, want 0/%d/1/0",
			ing.Inflight(), ing.Edges(), ing.Batches(), ing.Sheds(), len(edges))
	}
	assertCounted(t, c, edges)
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ing.Admit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit after Close = %v, want ErrClosed", err)
	}
}

// TestAdmitHoldsCloseUntilApplied pins the drain barrier: Close waits for
// an admitted batch, the batch lands in the destination before Close
// returns, and nothing is admitted once Close has begun.
func TestAdmitHoldsCloseUntilApplied(t *testing.T) {
	dest := &gateEstimator{gate: make(chan struct{})}
	ing, err := New(dest, Config{Workers: 1, BatchSize: 4, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.Admit(); err != nil {
		t.Fatal(err)
	}
	returned, closed := returnsBefore(50*time.Millisecond, func() { _ = ing.Close() })
	if returned {
		t.Fatal("Close returned over an admitted, unapplied batch")
	}
	if err := ing.Admit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Admit during Close = %v, want ErrClosed", err)
	}
	close(dest.gate)
	ing.Apply(testStream(10, 3))
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting after the admitted batch was applied")
	}
	if got := dest.Count(); got != 10 {
		t.Fatalf("applied %d edges, want 10", got)
	}
}

// TestAdmitBesideQueuedProducers runs both arms at once, with flushers, for
// the race detector: whatever was admitted or pushed is applied exactly
// once.
func TestAdmitBesideQueuedProducers(t *testing.T) {
	c := target(t)
	ing, err := New(c, Config{Workers: 2, BatchSize: 32, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	const producers, rounds, frame = 4, 50, 100
	streams := make([][]stream.Edge, producers)
	var all []stream.Edge
	for p := range streams {
		streams[p] = testStream(rounds*frame, uint64(40+p))
		all = append(all, streams[p]...)
	}
	var wg sync.WaitGroup
	for p, edges := range streams {
		wg.Add(1)
		go func(p int, edges []stream.Edge) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				batch := edges[r*frame : (r+1)*frame]
				if p%2 == 0 {
					if err := ing.Admit(); err != nil {
						t.Error(err)
						return
					}
					ing.Apply(batch)
				} else if err := ing.PushBatch(batch); err != nil {
					t.Error(err)
					return
				}
				if r%10 == 0 {
					if err := ing.Flush(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p, edges)
	}
	wg.Wait()
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ing.Edges(); got != producers*rounds*frame {
		t.Fatalf("Edges = %d, want %d", got, producers*rounds*frame)
	}
	assertCounted(t, c, all)
}
