package ingest

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
)

// TestDisplacedIngestorCollected: a closed pipeline dropped after its
// buffer pool served pushes in this GC cycle — as Restore drops the one it
// displaces — is freed, with the sketch it fed, by the next collection. An
// embedded pool used in this cycle kept the pipeline, and through dest its
// sketch, reachable through that collection.
func TestDisplacedIngestorCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the test's
	freed := make(chan struct{})
	func() {
		g := buildTarget(t)
		runtime.SetFinalizer(g, func(*core.GSketch) { close(freed) })
		in, err := New(core.NewConcurrent(g), Config{Workers: 2, BatchSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.PushBatch(testStream(2000, 4)); err != nil {
			t.Fatal(err)
		}
		if err := in.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("the displaced pipeline's sketch outlived one collection")
	}
}
