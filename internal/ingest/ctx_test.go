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
