package gsketch_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
)

// engineTestStream builds a deterministic skewed stream.
func engineTestStream(n int, seed int64) []gsketch.Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]gsketch.Edge, n)
	for i := range edges {
		edges[i] = gsketch.Edge{
			Src:    uint64(rng.Intn(64)),
			Dst:    uint64(rng.Intn(512)),
			Weight: int64(1 + rng.Intn(3)),
		}
	}
	return edges
}

func engineTestQueries(edges []gsketch.Edge, n int) []gsketch.EdgeQuery {
	qs := make([]gsketch.EdgeQuery, n)
	for i := range qs {
		e := edges[(i*31)%len(edges)]
		qs[i] = gsketch.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return qs
}

var engineTestCfg = gsketch.Config{TotalBytes: 64 << 10, Seed: 21}

// TestOpenMatchesShimsByteIdentical is the equivalence guard for the
// partitioned path: the core wiring Open assembles — core.BuildGSketch +
// core.NewConcurrent + Populate + core.WriteChainMeta — and the one-handle
// Open + Ingest + Save path must produce byte-identical snapshots and
// byte-identical batched answers.
func TestOpenMatchesShimsByteIdentical(t *testing.T) {
	edges := engineTestStream(20_000, 5)
	sample := edges[:2_000]
	qs := engineTestQueries(edges, 500)

	// The core calls, wired by hand.
	g, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewConcurrent(g)
	gsketch.Populate(ref, edges)
	var refSnap bytes.Buffer
	if _, err := core.WriteChainMeta(&refSnap, []io.WriterTo{ref}, nil); err != nil {
		t.Fatal(err)
	}
	refRes := gsketch.EstimateBatch(ref, qs)

	// One-handle engine.
	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(sample))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	var engSnap bytes.Buffer
	if _, err := eng.Save(&engSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refSnap.Bytes(), engSnap.Bytes()) {
		t.Fatalf("snapshot mismatch: core %d bytes, engine %d bytes", refSnap.Len(), engSnap.Len())
	}
	engRes := eng.QueryBatch(qs)
	for i := range qs {
		if refRes[i] != engRes[i] {
			t.Fatalf("query %d: core %+v, engine %+v", i, refRes[i], engRes[i])
		}
	}

	// The core reader loads the engine's snapshot: one generation, the
	// same answers and the same Count.
	gens, _, err := core.ReadChainMeta(bytes.NewReader(engSnap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("engine snapshot carries %d generations, want 1", len(gens))
	}
	if got, want := gens[0].Count(), ref.Count(); got != want {
		t.Fatalf("loaded Count %d, want %d", got, want)
	}
	for i, r := range gsketch.EstimateBatch(gens[0], qs) {
		if r != refRes[i] {
			t.Fatalf("loaded query %d: %+v want %+v", i, r, refRes[i])
		}
	}
}

// TestOpenGlobalMatchesShim pins the §3.2 baseline path.
func TestOpenGlobalMatchesShim(t *testing.T) {
	edges := engineTestStream(10_000, 7)
	qs := engineTestQueries(edges, 200)

	gl, err := core.BuildGlobalSketch(engineTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	gsketch.Populate(gl, edges)
	want := gsketch.EstimateBatch(gl, qs)

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core %+v, engine %+v", i, want[i], got[i])
		}
	}
}

// TestOpenWithIngestMatchesShimPipeline: the engine's mounted pipeline
// (WithIngest) lands exactly the same counters as an ingest.New pipeline
// wired by hand over the same stream.
func TestOpenWithIngestMatchesShimPipeline(t *testing.T) {
	edges := engineTestStream(30_000, 9)
	sample := edges[:2_000]
	qs := engineTestQueries(edges, 300)
	icfg := gsketch.IngestConfig{Workers: 4, BatchSize: 512, QueueDepth: 8}

	g, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := core.NewConcurrent(g)
	ing, err := ingest.New(ref, icfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PushBatch(edges); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
	want := gsketch.EstimateBatch(ref, qs)

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(sample), gsketch.WithIngest(icfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core pipeline %+v, engine pipeline %+v", i, want[i], got[i])
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineChainMatchesShimChain drives the adaptive path both ways with
// identical inputs: adapt.NewChain + adapt.Repartition wired by hand and
// the engine's recorder-fed Repartition must produce byte-identical chain
// snapshots and answers.
func TestEngineChainMatchesShimChain(t *testing.T) {
	edges := engineTestStream(20_000, 11)
	sample := edges[:2_000]
	qs := engineTestQueries(edges[10_000:], 256)
	ccfg := gsketch.ChainConfig{SampleSize: 1024, Seed: 3, MaxGenerations: 4}
	clock := func() time.Time { return time.Unix(0, 0) }

	// Core path: explicit chain, explicit workload slice.
	g0, err := core.BuildGSketch(engineTestCfg, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	chain := adapt.NewChain(g0, ccfg)
	chain.SetClock(clock) // v4 snapshots carry build times; match the engine's
	gsketch.Populate(chain, edges[:10_000])
	// The workload the engine will record: the served queries, weight 1,
	// timestamp 0 (the fixed clock).
	workload := make([]gsketch.Edge, len(qs))
	for i, q := range qs {
		workload[i] = gsketch.Edge{Src: q.Src, Dst: q.Dst, Weight: 1}
	}
	gsketch.EstimateBatch(chain, qs) // parity: routing counters see the reads
	if _, err := adapt.Repartition(chain, engineTestCfg, workload); err != nil {
		t.Fatal(err)
	}
	gsketch.Populate(chain, edges[10_000:])
	want := gsketch.EstimateBatch(chain, qs)
	var wantSnap bytes.Buffer
	if _, err := chain.WriteTo(&wantSnap); err != nil {
		t.Fatal(err)
	}

	// Engine path: the served queries ARE the workload, via the recorder.
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(sample),
		gsketch.WithAdaptive(ccfg, gsketch.AdaptConfig{}),
		gsketch.WithWorkloadRecorder(len(qs), 0),
		gsketch.WithClock(clock),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges[:10_000]...); err != nil {
		t.Fatal(err)
	}
	eng.QueryBatch(qs)
	if _, err := eng.Repartition(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges[10_000:]...); err != nil {
		t.Fatal(err)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d: core chain %+v, engine chain %+v", i, want[i], got[i])
		}
	}
	var gotSnap bytes.Buffer
	if _, err := eng.Save(&gotSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
		t.Fatalf("chain snapshot mismatch: core %d bytes, engine %d bytes", wantSnap.Len(), gotSnap.Len())
	}
	if eng.Generations() != 2 {
		t.Fatalf("generations = %d, want 2", eng.Generations())
	}
}

// TestEngineSnapshotRoundTrip: SaveSnapshot → Open(WithRestoreFile) →
// byte-identical answers, and the same file loads as a one-generation
// chain through Open(WithRestoreFile, WithAdaptive).
func TestEngineSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	edges := engineTestStream(10_000, 13)
	qs := engineTestQueries(edges, 200)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithSnapshotDir(dir),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	want := eng.QueryBatch(qs)
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	path := eng.SnapshotPath()
	if filepath.Dir(path) != dir {
		t.Fatalf("snapshot path %q not under %q", path, dir)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := gsketch.Open(engineTestCfg, gsketch.WithRestoreFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got := back.QueryBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("query %d after round trip: %+v want %+v", i, got[i], want[i])
		}
	}

	// The same snapshot restores as a single-generation chain.
	chained, err := gsketch.Open(engineTestCfg, gsketch.WithRestoreFile(path),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer chained.Close()
	if n := chained.Generations(); n != 1 {
		t.Fatalf("restored chain has %d generations, want 1", n)
	}
	for i, r := range chained.QueryBatch(qs) {
		// A restored single-generation chain answers with the same
		// estimates and bounds (stream totals included).
		if r != want[i] {
			t.Fatalf("chain query %d: %+v want %+v", i, r, want[i])
		}
	}
}

// TestEngineLiveRestoreSwap: restoring into a serving engine swaps the
// state atomically and later ingest lands in the restored estimator.
func TestEngineLiveRestoreSwap(t *testing.T) {
	edges := engineTestStream(8_000, 17)
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges[:4_000]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	savedTotal := eng.Estimator().Count()

	// More traffic after the snapshot, then restore: the post-snapshot
	// edges are deliberately discarded with the displaced state.
	if err := eng.Ingest(context.Background(), edges[4_000:]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := eng.Estimator().Count(); got != savedTotal {
		t.Fatalf("restored Count = %d, want %d", got, savedTotal)
	}
	// The restored state keeps serving and ingesting.
	if err := eng.Ingest(context.Background(), edges[:100]...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Estimator().Count(); got <= savedTotal {
		t.Fatalf("post-restore ingest lost: Count = %d", got)
	}
	if st := eng.Stats(); st.SnapshotsRestored != 1 {
		t.Fatalf("SnapshotsRestored = %d, want 1", st.SnapshotsRestored)
	}
}

// TestEngineAnswerRecordsWorkload: Answer/AnswerBatch constituents land in
// the workload reservoir like QueryBatch's.
func TestEngineAnswerRecordsWorkload(t *testing.T) {
	edges := engineTestStream(2_000, 23)
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:500]),
		gsketch.WithWorkloadRecorder(64, 1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	resp := eng.Answer(gsketch.SubgraphQuery{
		Edges: []gsketch.EdgeQuery{{Src: edges[0].Src, Dst: edges[0].Dst}, {Src: edges[1].Src, Dst: edges[1].Dst}},
		Agg:   gsketch.Sum,
	})
	if len(resp.Results) != 2 {
		t.Fatalf("Answer folded %d results, want 2", len(resp.Results))
	}
	if st := eng.Stats(); st.Workload == nil || st.Workload.Seen != 2 {
		t.Fatalf("workload stats = %+v, want 2 seen", eng.Stats().Workload)
	}
}

// TestOpenValidation pins the option-combination errors.
func TestOpenValidation(t *testing.T) {
	if _, err := gsketch.Open(engineTestCfg); err == nil {
		t.Fatal("Open with no bootstrap source should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal(), gsketch.WithSample(nil)); err == nil {
		t.Fatal("Open with two bootstrap sources should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithGlobal(),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{})); err == nil {
		t.Fatal("WithGlobal + WithAdaptive should fail")
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithSample([]gsketch.Edge{{Src: 1, Dst: 2}}),
		gsketch.WithAutoRepartition(time.Second, nil)); err == nil {
		t.Fatal("WithAutoRepartition without WithAdaptive should fail")
	}

	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample([]gsketch.Edge{{Src: 1, Dst: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Repartition(); !errors.Is(err, gsketch.ErrNotAdaptive) {
		t.Fatalf("Repartition on non-adaptive = %v, want ErrNotAdaptive", err)
	}
	if _, err := eng.QueryWindow(nil, 0, 1); !errors.Is(err, gsketch.ErrNoWindow) {
		t.Fatalf("QueryWindow without store = %v, want ErrNoWindow", err)
	}
	if _, err := eng.SaveSnapshot(""); !errors.Is(err, gsketch.ErrNoSnapshotPath) {
		t.Fatalf("SaveSnapshot without path = %v, want ErrNoSnapshotPath", err)
	}
}

// TestEngineCloseDuringRepartition is the shutdown-ordering guard (run
// under -race in CI): Close must stop and await the auto-repartition loop
// before the final snapshot, so a rebuild can never race the save — even
// with manual Repartition calls and ingest in flight.
func TestEngineCloseDuringRepartition(t *testing.T) {
	dir := t.TempDir()
	edges := engineTestStream(12_000, 29)
	qs := engineTestQueries(edges[6_000:], 512)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:1_000]),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 128}),
		gsketch.WithAdaptive(
			gsketch.ChainConfig{SampleSize: 512, Seed: 7, MaxGenerations: 64},
			gsketch.AdaptConfig{DriftThreshold: 0.01, MinWorkload: 1, MinData: 1},
		),
		gsketch.WithAutoRepartition(time.Millisecond, nil),
		gsketch.WithWorkloadRecorder(1024, 1),
		gsketch.WithSnapshotDir(dir),
		gsketch.WithSnapshotOnClose(),
	)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // ingest pressure keeps the data reservoir fresh
		defer wg.Done()
		for i := 0; ; i += 500 {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.Ingest(context.Background(), edges[i%10_000:i%10_000+500]...)
		}
	}()
	go func() { // query pressure feeds the drift signal and manual swaps
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			eng.QueryBatch(qs)
			_, _ = eng.Repartition()
		}
	}()

	time.Sleep(20 * time.Millisecond) // let swaps and the auto loop overlap
	if err := eng.Close(); err != nil {
		t.Fatalf("Close during repartition: %v", err)
	}
	close(stop)
	wg.Wait()

	// The final snapshot must be a loadable chain covering a consistent
	// state (Close stopped the loop before saving).
	f, err := os.Open(eng.SnapshotPath())
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	defer f.Close()
	if _, _, err := core.ReadChainMeta(f); err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	// Post-close ingest fails typed; reads stay usable.
	if err := eng.Ingest(context.Background(), edges[0]); !errors.Is(err, gsketch.ErrEngineClosed) {
		t.Fatalf("Ingest after Close = %v, want ErrEngineClosed", err)
	}
	eng.QueryBatch(qs[:8])
}

// TestBootstrapReleasesDataSample: the data sample steers the build and is
// never read again, so once the caller lets go of it the engine must not be
// what keeps it alive — on the largest benchmark workload it is 128 MiB
// beside a 33 MB sketch. An adaptive engine with an auto-repartition loop
// is the hard case: the loop's closure captures Open's option set.
func TestBootstrapReleasesDataSample(t *testing.T) {
	if testing.Short() {
		t.Skip("1 Mi-edge sample")
	}
	heap := func() runtime.MemStats {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m
	}
	const edges, sampleBytes = 1 << 20, 32 << 20
	base := heap()
	rng := rand.New(rand.NewSource(3))
	sample := make([]gsketch.Edge, edges)
	for i := range sample {
		sample[i] = gsketch.Edge{Src: uint64(rng.Intn(1 << 14)), Dst: uint64(rng.Intn(1 << 16)), Weight: 1}
	}
	// TotalAlloc only grows: memory another test's goroutine frees
	// meanwhile cannot move it, as it could a HeapInuse delta.
	if alloc := heap().TotalAlloc - base.TotalAlloc; alloc < sampleBytes {
		t.Fatalf("the sample accounts for %d allocated bytes, expected at least %d", alloc, sampleBytes)
	}
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 20, Seed: 1},
		gsketch.WithSample(sample),
		gsketch.WithWorkloadSample(slices.Clone(sample[:1024])), // a copy: a subslice would pin the whole array
		gsketch.WithIngest(gsketch.IngestConfig{}),
		gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 1024, Seed: 1}, gsketch.AdaptConfig{}),
		gsketch.WithAutoRepartition(time.Hour, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	sample = nil
	// Counters (1 MiB), a router over 16 Ki sources, the chain's reservoir,
	// the ingest queue: a few MB. The sample would be 32 more.
	if held := int64(heap().HeapInuse) - int64(base.HeapInuse); held > sampleBytes/2 {
		t.Errorf("%d heap bytes in use after Open and a dropped sample: the engine still holds it", held)
	}
	if eng.Stats().Partitions < 2 {
		t.Fatal("fixture built no partitions")
	}
}
