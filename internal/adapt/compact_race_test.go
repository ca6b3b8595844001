package adapt

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Compactions racing concurrent batch ingest and rotations must lose no
// stream volume: folds only touch frozen generations (immutable once the
// displacing rotation's exclusive lock drained in-flight writers), so the
// chain-wide count is conserved no matter how the three interleave. The
// compact-side mirror of TestChainSwapDuringIngestConservesCount; run
// under -race it also exercises compactMu against the chain locks.
func TestChainCompactDuringIngestConservesCount(t *testing.T) {
	edges := testStream(40000, 67)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 2}
	chain := NewChain(buildSketch(t, edges[:2000], 2), ChainConfig{SampleSize: 1024, MaxGenerations: 6})

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

	// Rotator: keeps freezing generations so the compactor has fodder.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = Repartition(chain, core.Config{TotalBytes: 32 << 10, Seed: uint64(100 + i)}, nil)
		}
	}()

	// Compactor: folds whenever two frozen generations exist.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := chain.Compact(2, cfg, nil); err != nil && !errors.Is(err, ErrNothingToCompact) {
				t.Errorf("compact during ingest: %v", err)
				return
			}
		}
	}()

	for pushed.Load() < int64(writers*share) {
		_ = chain.EstimateBatch([]core.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}})
	}
	close(stop)
	wg.Wait()

	if got := chain.Count(); got != pushed.Load() {
		t.Fatalf("chain lost volume across compactions: Count=%d pushed=%d (generations=%d)",
			got, pushed.Load(), chain.Generations())
	}
}

// Rotations at the cap fold first, taking the chain's compactMu and then
// mu, while a writer ingests, a policy loop folds and a reader gathers. Run
// under -race it checks that lock order; at the end the chain has never
// passed its cap and has lost no volume.
func TestChainFoldAtCapAmidIngest(t *testing.T) {
	const cap = 3
	edges := testStream(20480, 79)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 6}
	chain := NewChain(buildSketch(t, edges[:2000], 6), ChainConfig{SampleSize: 1024, MaxGenerations: cap})
	var folds atomic.Int64
	chain.SetCompaction(2, func(compact.Result) { folds.Add(1) })

	var wg sync.WaitGroup
	stop := make(chan struct{})
	loop := func(step func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 2; r++ { // two rotators, so one may find the other's fold
		loop(func() error {
			_, err := Repartition(chain, cfg, nil)
			if err != nil && !errors.Is(err, ErrMaxGenerations) && !errors.Is(err, ErrEmptyReservoir) {
				return fmt.Errorf("rotation: %w", err)
			}
			if g := chain.Generations(); g > cap {
				return fmt.Errorf("%d generations, cap %d", g, cap)
			}
			return nil
		})
	}
	loop(func() error { _, err := chain.CompactOnce(2, cfg, nil); return err })
	qs := chainQueries(edges, 64)
	loop(func() error { chain.EstimateBatch(qs); return nil })

	var pushed int64
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; folds.Load() < 8 && !t.Failed(); i = (i + 256) % len(edges) {
		if time.Now().After(deadline) {
			t.Error("no 8 folds within 20 s")
			break
		}
		chain.UpdateBatch(edges[i : i+256])
		for _, e := range edges[i : i+256] {
			pushed += e.Weight
		}
	}
	close(stop)
	wg.Wait()
	if got := chain.Count(); got != pushed {
		t.Fatalf("chain lost volume across folds at the cap: Count=%d pushed=%d", got, pushed)
	}
}

// Queries racing compactions (and rotations feeding them) must stay sound:
// estimates never drop below exact truth for the already-ingested prefix,
// whichever chain state a gather lands on. Mirror of
// TestChainSwapDuringQuery for the fold path.
func TestChainCompactDuringQuery(t *testing.T) {
	edges := testStream(20000, 71)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 3}
	// SampleSize exceeds any segment's stream slice, so every frozen
	// generation retains its whole slice and re-ingest folds replay
	// losslessly — the ≥truth assertion below is only valid then (an
	// undersampled reservoir folds to an approximation by design).
	chain := NewChain(buildSketch(t, edges[:2000], 5), ChainConfig{SampleSize: 16384, MaxGenerations: 8})
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
			if _, err := chain.Compact(2, cfg, nil); err != nil && !errors.Is(err, ErrNothingToCompact) {
				t.Errorf("compact during query: %v", err)
				return
			}
			// Trickle more stream in so later rebuilds have a reservoir.
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

// Folds read frozen generations in place while queries reload the same
// generations from their spill files, residency enforcement spills them
// again, and writers ingest and rotate. Run under -race this checks that a
// fold's unlocked reads of a resident source race no writer; at the end no
// volume is lost and, every reservoir holding its whole slice so that each
// fold is lossless, no answer fell below the truth of the prefix ingested
// before the race began.
func TestChainCompactDuringSpillAndReload(t *testing.T) {
	const prefix, rotations, chunk = 4000, 8, 512
	edges := testStream(prefix+2*rotations*chunk, 73)
	cfg := core.Config{TotalBytes: 16 << 10, Seed: 4}
	build := func() *core.GSketch {
		g, err := core.BuildGSketch(cfg, edges[:1000], nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	chain := NewChain(build(), ChainConfig{SampleSize: 16384, MaxGenerations: 6})
	chain.SetTiering(t.TempDir(), 1)
	chain.UpdateBatch(edges[:prefix])

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges[:prefix])
	qs := chainQueries(edges[:prefix], 256)

	var wg sync.WaitGroup
	done := make(chan struct{})
	rotating, streaming := edges[prefix:prefix+rotations*chunk], edges[prefix+rotations*chunk:]
	wg.Add(2)
	go func() { // writer that rotates: same-layout rotations fold exactly, repartitions by re-ingest
		defer wg.Done()
		defer close(done)
		for i := 0; i < rotations; i++ {
			chain.UpdateBatch(rotating[i*chunk : (i+1)*chunk])
			var err error
			if i%4 == 3 {
				_, err = Repartition(chain, core.Config{TotalBytes: 16 << 10, Seed: uint64(50 + i)}, nil)
			} else {
				err = chain.Rotate(build())
			}
			if err != nil && !errors.Is(err, ErrMaxGenerations) {
				t.Errorf("rotation %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // writer racing the rotations
		defer wg.Done()
		for lo := 0; lo < len(streaming); lo += 64 {
			chain.UpdateBatch(streaming[lo : lo+64])
		}
	}()
	loop := func(step func() error) {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := step(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	wg.Add(3)
	go loop(func() error { // compactor
		if _, err := chain.Compact(2, cfg, nil); err != nil && !errors.Is(err, ErrNothingToCompact) {
			return err
		}
		return nil
	})
	go loop(func() error { _, err := chain.EnforceResidency(); return err })
	go loop(func() error { // reader: reloads whatever is spilled
		for i, r := range chain.EstimateBatch(qs) {
			if truth := exact.EdgeFrequency(qs[i].Src, qs[i].Dst); r.Estimate < truth {
				return fmt.Errorf("edge (%d,%d): estimate %d < truth %d", qs[i].Src, qs[i].Dst, r.Estimate, truth)
			}
		}
		return nil
	})
	wg.Wait()

	var want int64
	for _, e := range edges {
		want += e.Weight
	}
	if got := chain.Count(); got != want {
		t.Fatalf("chain lost volume: Count=%d, want %d (generations=%d)", got, want, chain.Generations())
	}
}
