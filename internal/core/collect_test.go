package core

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

// TestConcurrentCollected: a dropped Concurrent whose grouping pool served
// batches in this GC cycle is freed, with its sketch, by the next
// collection. sync keeps a pool used since the last collection reachable
// through the next one; an embedded pool is an interior pointer into the
// wrapper, so the sketch and its counter arena lived until the second.
func TestConcurrentCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the test's
	freed := make(chan struct{})
	func() {
		g := buildBatchTestSketch(t, 5)
		runtime.SetFinalizer(g, func(*GSketch) { close(freed) })
		c := NewConcurrent(g)
		edges := batchTestStream(2000, 6)
		c.UpdateBatch(edges)
		qs := make([]EdgeQuery, len(edges))
		for i, e := range edges {
			qs[i] = EdgeQuery{Src: e.Src, Dst: e.Dst}
		}
		c.EstimateBatch(qs)
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("the dropped Concurrent's sketch outlived one collection")
	}
}
