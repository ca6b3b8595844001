package gsketch

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

var internalTestCfg = Config{TotalBytes: 64 << 10, Seed: 21}

func internalTestStream(n int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: uint64(rng.Intn(64)), Dst: uint64(rng.Intn(512)), Weight: int64(rng.Intn(3)) + 1, Time: int64(i)}
	}
	return edges
}

func internalTestQueries(edges []Edge, n int) []EdgeQuery {
	qs := make([]EdgeQuery, n)
	for i := range qs {
		e := edges[(i*31)%len(edges)]
		qs[i] = EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return qs
}

func buildInternal(t *testing.T, sample []Edge) *GSketch {
	t.Helper()
	g, err := core.BuildGSketch(internalTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceChain builds a sampled chain of gens generations over edges, one
// repartition per later generation, and returns it with its snapshot.
func referenceChain(t *testing.T, edges []Edge, gens int) (*adapt.Chain, []byte) {
	t.Helper()
	chain := adapt.NewChain(buildInternal(t, edges[:2000]), adapt.ChainConfig{SampleSize: 4096, Seed: 3})
	seg := len(edges) / gens
	for g := 0; g < gens; g++ {
		if g > 0 {
			if _, err := adapt.Repartition(chain, internalTestCfg, nil); err != nil {
				t.Fatal(err)
			}
		}
		chain.UpdateBatch(edges[g*seg : (g+1)*seg])
	}
	var snap bytes.Buffer
	if _, err := chain.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}
	return chain, snap.Bytes()
}

// TestBootstrapEveryEngineServesAChain opens one engine from each bootstrap
// source: every one but a foreign estimator (behind the mutex, and
// unsaveable) serves a generation chain and reports it, a restore answers
// what the chain that wrote the snapshot answers (before and after more
// ingest), and no static engine's chain samples its stream. Ingest is
// one-edge batches through Ingest, TryIngest and Admit+Apply in turn, and
// an engine started from a fresh sketch ends as that sketch fed per edge
// by GSketch.Update: same snapshot bytes, GSketch.EstimateEdge's answers.
func TestBootstrapEveryEngineServesAChain(t *testing.T) {
	edges := internalTestStream(24_000, 5)
	sample := edges[:2000]
	qs := internalTestQueries(edges, 400)
	var file bytes.Buffer
	if err := stream.WriteTextEdges(&file, sample); err != nil {
		t.Fatal(err)
	}
	samplePath := filepath.Join(t.TempDir(), "sample.txt")
	if err := os.WriteFile(samplePath, file.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	one, oneSnap := referenceChain(t, edges[:12_000], 1)
	three, threeSnap := referenceChain(t, edges[:12_000], 3)
	more := edges[12_000:]
	global, err := core.BuildGlobalSketch(internalTestCfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		opt  Option
		ref  *adapt.Chain // the chain a restore must answer as
		gens int          // 0: a foreign estimator, served behind the mutex
		base *GSketch     // the sketch the engine starts from, fed per edge
	}{
		{"sample", WithSample(sample), nil, 1, buildInternal(t, sample)},
		{"sample file", WithSampleFile(samplePath, 0), nil, 1, buildInternal(t, sample)},
		{"global", WithGlobal(), nil, 1, global},
		{"restore of 1 generation", WithRestore(bytes.NewReader(oneSnap)), one, 1, nil},
		{"restore of 3 generations", WithRestore(bytes.NewReader(threeSnap)), three, 3, nil},
		{"adopted *GSketch", WithEstimator(buildInternal(t, sample)), nil, 1, buildInternal(t, sample)},
		{"adopted *Concurrent", WithEstimator(core.NewConcurrent(buildInternal(t, sample))), nil, 1, buildInternal(t, sample)},
		// Queried from one goroutine, as its embedded sketch requires.
		{"foreign", WithEstimator(struct{ *GSketch }{buildInternal(t, sample)}), nil, 0, buildInternal(t, sample)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := Open(internalTestCfg, tc.opt, WithIngest(IngestConfig{}))
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			chain := eng.state().chain
			if _, locked := eng.state().est.(*lockedEstimator); locked != (tc.gens == 0) || locked != (chain == nil) {
				t.Fatalf("engine serves %T, want a chain unless the estimator is foreign", eng.state().est)
			}
			if got := eng.Generations(); got != max(tc.gens, 1) {
				t.Fatalf("Generations() = %d, want %d", got, max(tc.gens, 1))
			}
			if a := eng.Stats().Adapt; chain != nil && (a == nil || a.Generations != tc.gens) {
				t.Fatalf("Stats().Adapt = %+v, want %d generations", a, tc.gens)
			}
			sameAnswers := func(when string) {
				t.Helper()
				if tc.ref == nil {
					return
				}
				want := tc.ref.EstimateBatch(qs)
				for i, got := range eng.QueryBatch(qs) {
					if got != want[i] {
						t.Fatalf("%s, query %d: engine %+v, reference chain %+v", when, i, got, want[i])
					}
				}
			}
			sameAnswers("restored")

			for i, e := range more {
				switch i % 3 {
				case 0:
					err = eng.Ingest(context.Background(), e)
				case 1:
					_, err = eng.TryIngest(more[i : i+1])
					for errors.Is(err, ErrIngestQueueFull) {
						runtime.Gosched()
						_, err = eng.TryIngest(more[i : i+1])
					}
				case 2:
					var a Admission
					if a, err = eng.Admit(more[i : i+1]); err == nil {
						a.Apply()
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if tc.base != nil {
					tc.base.Update(e)
				}
			}
			if err := eng.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if tc.ref != nil {
				tc.ref.UpdateBatch(more)
			}
			sameAnswers("after ingest")
			if chain != nil && chain.SampleSize() != 0 {
				t.Fatalf("a static engine's chain holds %d sampled edges, want none", chain.SampleSize())
			}
			if tc.base == nil {
				return
			}
			want := tc.base.EstimateBatch(qs)
			for i, got := range eng.QueryBatch(qs) {
				if got != want[i] || got.Estimate != tc.base.EstimateEdge(qs[i].Src, qs[i].Dst) {
					t.Fatalf("query %d: engine %+v, per-edge reference %+v", i, got, want[i])
				}
			}
			var saved, snap bytes.Buffer
			if _, err = eng.Save(&saved); chain == nil {
				if err == nil {
					t.Fatal("an engine over a foreign estimator saved")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			_, metas, err := core.ReadChainMeta(bytes.NewReader(saved.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.WriteChainMeta(&snap, []io.WriterTo{tc.base}, metas); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved.Bytes(), snap.Bytes()) {
				t.Fatal("the engine's snapshot differs from the per-edge reference's")
			}
		})
	}
}

// TestBootstrapAdoptedConcurrentSharesStripeLocks: an adopted *Concurrent
// is the chain's head with its own stripe locks, so writes through it race
// neither the engine's writes nor its reads (run under -race).
func TestBootstrapAdoptedConcurrentSharesStripeLocks(t *testing.T) {
	edges := internalTestStream(20_000, 7)
	conc := core.NewConcurrent(buildInternal(t, edges[:2000]))
	eng, err := Open(internalTestCfg, WithEstimator(conc))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.Sketch() != conc.Unwrap() {
		t.Fatal("the engine serves a sketch other than the adopted one")
	}
	qs := internalTestQueries(edges, 256)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(edges); lo += 500 {
			conc.UpdateBatch(edges[lo : lo+500])
		}
	}()
	go func() {
		defer wg.Done()
		for lo := 0; lo < len(edges); lo += 500 {
			if err := eng.Ingest(context.Background(), edges[lo:lo+500]...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			eng.QueryBatch(qs)
		}
	}()
	wg.Wait()
	var want int64
	for _, e := range edges {
		want += 2 * e.Weight
	}
	if got := eng.Stats().StreamTotal; got != want || conc.Count() != want {
		t.Fatalf("stream total %d through the engine, %d through the Concurrent, want %d", got, conc.Count(), want)
	}
}

// pivots ingests edges in n slices with a repartition after each but the
// last, leaving n generations.
func pivots(t *testing.T, eng *Engine, edges []Edge, n int) {
	t.Helper()
	seg := len(edges) / n
	for p := 0; p < n; p++ {
		if p > 0 {
			if _, err := eng.Repartition(); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Ingest(context.Background(), edges[p*seg:(p+1)*seg]...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLifecycleCompactStep drives one step of the lifecycle goroutine's
// compaction tick: under the trigger it folds nothing and enforces the
// residency cap, over it it folds exactly once, a policy with no trigger
// starts no goroutine, and a failed fold goes to the error handler and
// counts no compaction.
func TestLifecycleCompactStep(t *testing.T) {
	edges := internalTestStream(24_000, 11)
	adaptive := WithAdaptive(adapt.ChainConfig{SampleSize: 16_384, Seed: 7}, AdaptConfig{})
	var errs []error
	onErr := func(err error) { errs = append(errs, err) }
	eng, err := Open(internalTestCfg, WithSample(edges[:2000]), adaptive,
		WithTiering(t.TempDir(), 1),
		WithCompaction(CompactionPolicy{MaxGenerations: 3, Interval: time.Hour}, onErr))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pivots(t, eng, edges[:18_000], 3)
	eng.QueryBatch(internalTestQueries(edges, 64)) // reloads every spilled generation
	if a := eng.Stats().Adapt; a.Generations != 3 || a.ResidentGenerations != 3 {
		t.Fatalf("fixture: %+v, want 3 generations, all resident", a)
	}

	// Under the trigger: nothing folds, and the cold generation spills.
	if eng.compactStep() {
		t.Fatal("a step under the trigger folded")
	}
	if a := eng.Stats().Adapt; a.Generations != 3 || a.Compactions != 0 || a.ResidentGenerations != 2 {
		t.Fatalf("under the trigger: %+v, want 3 generations, no compaction, 2 resident", a)
	}

	// Over the trigger: exactly one fold.
	if _, err := eng.Repartition(); err != nil {
		t.Fatal(err)
	}
	if !eng.compactStep() {
		t.Fatal("a step over the trigger did not fold")
	}
	if a := eng.Stats().Adapt; a.Generations != 3 || a.Compactions != 1 {
		t.Fatalf("over the trigger: %+v, want one fold leaving 3 generations", a)
	}
	if len(errs) != 0 {
		t.Fatalf("errors reported: %v", errs)
	}

	// A policy with no trigger starts no goroutine.
	idle, err := Open(internalTestCfg, WithSample(edges[:2000]), adaptive,
		WithCompaction(CompactionPolicy{Fold: 2}, onErr))
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if idle.stop != nil || idle.done != nil {
		t.Fatal("a policy with no trigger started the lifecycle goroutine")
	}

	// A fold that fails: frozen generations restored from a snapshot keep
	// no sample, and layouts that differ leave nothing to merge them by.
	// Two ticks report the refusal once.
	var snap bytes.Buffer
	if _, err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	policy := WithCompaction(CompactionPolicy{MaxGenerations: 1, Interval: time.Hour}, onErr)
	restored, err := Open(internalTestCfg, WithRestore(bytes.NewReader(snap.Bytes())), adaptive, policy)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.compactStep() || restored.compactStep() {
		t.Fatal("a failing step reported a fold")
	}
	if len(errs) != 1 || !errors.Is(errs[0], compact.ErrUnfoldable) {
		t.Fatalf("errors reported: %v, want the one refused fold", errs)
	}
	if a := restored.Stats().Adapt; a.Compactions != 0 || a.Generations != 3 {
		t.Fatalf("after a failed fold: %+v, want no compaction and 3 generations", a)
	}

	// Restored at its cap, the engine refuses a repartition as the cap
	// does, not as a server fault.
	capped, err := Open(internalTestCfg, WithRestore(bytes.NewReader(snap.Bytes())), policy,
		WithAdaptive(adapt.ChainConfig{MaxGenerations: 3}, AdaptConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	if _, err := capped.Repartition(); !errors.Is(err, ErrMaxGenerations) || !errors.Is(err, compact.ErrUnfoldable) {
		t.Fatalf("repartition at the cap: %v, want ErrMaxGenerations wrapping compact.ErrUnfoldable", err)
	}
}

// TestAutoRepartitionReportsRefusedFoldOnce: an adaptive engine restored at
// its cap from generations that cannot fold meets a refused fold at its
// first drift tick, reports it once and stays quiet until the
// generations change, while an explicit Repartition still meets the cap
// every time.
func TestAutoRepartitionReportsRefusedFoldOnce(t *testing.T) {
	edges := internalTestStream(18_000, 17)
	adaptive := WithAdaptive(adapt.ChainConfig{SampleSize: 16_384, Seed: 7}, AdaptConfig{})
	src, err := Open(internalTestCfg, WithSample(edges[:2000]), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pivots(t, src, edges, 3)
	var snap bytes.Buffer
	if _, err := src.Save(&snap); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var errs []error
	capped, err := Open(internalTestCfg, WithRestore(bytes.NewReader(snap.Bytes())),
		WithAdaptive(adapt.ChainConfig{MaxGenerations: 3}, AdaptConfig{}),
		WithCompaction(CompactionPolicy{MaxGenerations: 3, Interval: time.Hour}, nil),
		WithAutoRepartition(5*time.Millisecond, func(err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer capped.Close()
	if g := capped.Generations(); g != 3 {
		t.Fatalf("fixture: %d generations restored, want 3", g)
	}
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, err := capped.Repartition(); !errors.Is(err, ErrMaxGenerations) {
			t.Fatalf("repartition %d at the cap: %v, want ErrMaxGenerations", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(errs) != 1 || !errors.Is(errs[0], ErrMaxGenerations) || !errors.Is(errs[0], compact.ErrUnfoldable) {
		t.Fatalf("drift ticks reported %d errors, want the one refused fold; the first: %v", len(errs), errors.Join(errs[:min(1, len(errs))]...))
	}
}

// TestRestoreForgetsRefusedFold: a refused fold is remembered by the chain
// it was refused on. An engine whose tick fold was refused, restored from a
// snapshot of as many generations that can fold, folds at its next step.
func TestRestoreForgetsRefusedFold(t *testing.T) {
	edges := internalTestStream(18_000, 19)
	adaptive := WithAdaptive(adapt.ChainConfig{SampleSize: 16_384, Seed: 7}, AdaptConfig{})
	src, err := Open(internalTestCfg, WithSample(edges[:2000]), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	pivots(t, src, edges, 3)
	var unfoldable bytes.Buffer
	if _, err := src.Save(&unfoldable); err != nil {
		t.Fatal(err)
	}
	// Three generations of one layout merge cell-wise, sample or none.
	gens := make([]*GSketch, 3)
	for i := range gens {
		if gens[i], err = core.BuildGSketch(internalTestCfg, edges[:2000], nil); err != nil {
			t.Fatal(err)
		}
		core.Populate(gens[i], edges[i*6000:(i+1)*6000])
	}
	var foldable bytes.Buffer
	if _, err := adapt.NewStaticChain(gens, nil).WriteTo(&foldable); err != nil {
		t.Fatal(err)
	}

	var errs []error
	eng, err := Open(internalTestCfg, WithRestore(&unfoldable), adaptive,
		WithCompaction(CompactionPolicy{MaxGenerations: 2, Interval: time.Hour}, func(err error) { errs = append(errs, err) }))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if eng.compactStep() || len(errs) != 1 || !errors.Is(errs[0], compact.ErrUnfoldable) {
		t.Fatalf("step on generations that cannot fold: errors %v, want the one refused fold", errs)
	}
	if err := eng.Restore(&foldable); err != nil {
		t.Fatal(err)
	}
	if g := eng.Generations(); g != 3 {
		t.Fatalf("fixture: %d generations restored, want 3", g)
	}
	if !eng.compactStep() {
		t.Fatalf("step after restoring generations that fold did not fold; errors %v", errs)
	}
	if a := eng.Stats().Adapt; a.Compactions != 1 || a.Generations != 2 || len(errs) != 1 {
		t.Fatalf("after the fold: %+v, errors %v, want one compaction, 2 generations, no new error", a, errs)
	}
}

// engineGoroutines counts the goroutines an engine starts: those created
// by Open (the lifecycle goroutine, its one go statement) and by the ingest
// pipeline (its workers).
func engineGoroutines() (lifecycle, workers int) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		switch {
		case strings.Contains(g, "created by github.com/graphstream/gsketch.Open"):
			lifecycle++
		case strings.Contains(g, "created by github.com/graphstream/gsketch/internal/ingest.New"):
			workers++
		}
	}
	return lifecycle, workers
}

// TestLifecycleOneGoroutine: an engine with both background policies runs
// them on one goroutine beside its ingest workers, and Close leaves none.
func TestLifecycleOneGoroutine(t *testing.T) {
	edges := internalTestStream(4000, 13)
	lifecycle0, workers0 := engineGoroutines()
	const workers = 2
	eng, err := Open(internalTestCfg, WithSample(edges[:2000]),
		WithIngest(IngestConfig{Workers: workers}),
		WithAdaptive(adapt.ChainConfig{}, AdaptConfig{}),
		WithAutoRepartition(time.Hour, nil),
		WithCompaction(CompactionPolicy{MaxGenerations: 4, Interval: time.Hour}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if l, w := engineGoroutines(); l-lifecycle0 != 1 || w-workers0 != workers {
		t.Fatalf("Open started %d goroutines of its own and %d ingest workers, want 1 and %d", l-lifecycle0, w-workers0, workers)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close has awaited the lifecycle goroutine's last deferred call and
	// the workers' exit; each may still be on its way out.
	deadline := time.Now().Add(5 * time.Second)
	for {
		l, w := engineGoroutines()
		if l == lifecycle0 && w == workers0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines of Open's and %d ingest workers left after Close", l-lifecycle0, w-workers0)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRestoreDisplacedStateCollected: the chain and pipeline a Restore
// displaces are freed, with their generations, by the next collection,
// though their pools served batches in the same GC cycle.
func TestRestoreDisplacedStateCollected(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no cycle but the test's
	edges := internalTestStream(12_000, 23)
	eng, err := Open(internalTestCfg, WithSample(edges[:2000]),
		WithAdaptive(adapt.ChainConfig{SampleSize: 4096, Seed: 7}, AdaptConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	pivots(t, eng, edges[:8000], 2)
	var snap bytes.Buffer
	if _, err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(eng.state().chain.Head(), func(*GSketch) { close(freed) })
	if _, err := eng.TryIngest(edges[8000:]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	eng.QueryBatch(internalTestQueries(edges, 256))
	if err := eng.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(time.Second):
		t.Fatal("the displaced chain's head outlived one collection")
	}
}
