package adapt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Rotations racing concurrent batch ingest must lose no stream volume: an
// update in flight across a swap lands in the old head or the new one,
// never nowhere. Run under -race this also exercises the chain's lock
// discipline.
func TestChainSwapDuringIngestConservesCount(t *testing.T) {
	edges := testStream(40000, 31)
	chain := NewChain(buildSketch(t, edges[:2000], 2), ChainConfig{SampleSize: 1024, MaxGenerations: 16})

	const writers = 4
	var pushed atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	share := len(edges) / writers
	for w := 0; w < writers; w++ {
		part := edges[w*share : (w+1)*share]
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for lo := 0; lo < len(part); lo += 256 {
				hi := lo + 256
				if hi > len(part) {
					hi = len(part)
				}
				chain.UpdateBatch(part[lo:hi])
				var vol int64
				for _, e := range part[lo:hi] {
					vol += e.Weight
				}
				pushed.Add(vol)
			}
		}(part)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := Repartition(chain, core.Config{TotalBytes: 32 << 10, Seed: uint64(100 + i)}, nil); err != nil {
				// Empty reservoir right after a rotate, or the generation
				// cap: both fine — keep spinning.
				continue
			}
		}
	}()

	// Let the rotator race the writers for the whole ingest, then stop it.
	wgWriters := make(chan struct{})
	go func() {
		wg.Wait() // wait for all (writers + rotator after stop)
		close(wgWriters)
	}()
	// Writers are the first `writers` goroutines; poll their progress via
	// pushed instead of a second WaitGroup.
	for pushed.Load() < int64(writers*share) {
		qs := []core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}}
		_ = chain.EstimateBatch(qs)
	}
	close(stop)
	<-wgWriters

	if got := chain.Count(); got != pushed.Load() {
		t.Fatalf("chain lost volume across swaps: Count=%d pushed=%d (generations=%d)",
			got, pushed.Load(), chain.Generations())
	}
}

// Queries and serialization racing rotations must stay internally sound:
// estimates never shrink below what a consistent chain would answer, and
// no -race report fires.
func TestChainSwapDuringQuery(t *testing.T) {
	edges := testStream(20000, 33)
	chain := NewChain(buildSketch(t, edges[:2000], 5), ChainConfig{SampleSize: 1024, MaxGenerations: 32})
	chain.UpdateBatch(edges[:10000])

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges[:10000])
	var qs []core.EdgeQuery
	for _, e := range edges[:512] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = Repartition(chain, core.Config{TotalBytes: 32 << 10, Seed: uint64(i)}, edges[:100])
			// Trickle more stream into whichever head is current so later
			// rebuilds have a reservoir to partition from.
			chain.UpdateBatch(edges[10000+(i%100)*64 : 10000+(i%100)*64+64])
		}
	}()

	for round := 0; round < 50; round++ {
		res := chain.EstimateBatch(qs)
		for i, q := range qs {
			truth := exact.EdgeFrequency(q.Src, q.Dst)
			if res[i].Estimate < truth {
				t.Errorf("round %d edge (%d,%d): estimate %d < truth %d",
					round, q.Src, q.Dst, res[i].Estimate, truth)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// A rotation racing one batch must not freeze the displaced head without the
// batch in its retained sample: a generation frozen with volume and no
// sample cannot be compacted. The batch's fold and its reservoir offer share
// one hold of the shared lock, so a rotation comes before both or after
// both. The test parks the batch between the two by holding the reservoir
// lock, starts a rotation, and checks that the rotation waits for the batch
// instead of installing its head — then that the head it freezes holds the
// batch in its counters and its sample alike.
func TestChainRotateWaitsForReservoirOffer(t *testing.T) {
	edges := testStream(2256, 41)
	chain := NewChain(buildSketch(t, edges[:2000], 3), ChainConfig{SampleSize: 1024})
	next := buildSketch(t, edges[:2000], 4)
	batch := edges[2000:]

	chain.resMu.Lock()
	updated := make(chan struct{})
	go func() {
		chain.UpdateBatch(batch)
		close(updated)
	}()
	for chain.Count() < int64(len(batch)) { // folded; the offer waits
		runtime.Gosched()
	}
	rotated := make(chan error, 1)
	go func() { rotated <- chain.Rotate(next) }()

	// A rotation parked behind the batch keeps every reader out; one that
	// got past it lets them in and shows its new head.
	var parked time.Time
	for parked.IsZero() || time.Since(parked) < 10*time.Millisecond {
		if !chain.mu.TryRLock() {
			if parked.IsZero() {
				parked = time.Now()
			}
		} else {
			installed := len(chain.gens) > 1
			chain.mu.RUnlock()
			if installed {
				chain.resMu.Unlock()
				t.Fatal("the rotation installed its head while the batch's reservoir offer was pending")
			}
			parked = time.Time{}
		}
		runtime.Gosched()
	}
	chain.resMu.Unlock()
	<-updated
	if err := <-rotated; err != nil {
		t.Fatal(err)
	}

	chain.mu.RLock()
	frozen := chain.gens[0]
	chain.mu.RUnlock()
	sample, seen := frozen.Sample()
	if frozen.Count() != int64(len(batch)) || len(sample) != len(batch) || seen != int64(len(batch)) {
		t.Fatalf("frozen generation: count %d, sample of %d edges out of %d seen; want the %d-edge batch in each",
			frozen.Count(), len(sample), seen, len(batch))
	}
	if n := chain.SampleSize(); n != 0 {
		t.Fatalf("the reservoir holds %d edges after the swap, want it reset", n)
	}
}
