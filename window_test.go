package gsketch_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// windowedStream is engineTestStream with times 0, 1, 2, ….
func windowedStream(n int, seed int64) []gsketch.Edge {
	edges := engineTestStream(n, seed)
	for i := range edges {
		edges[i].Time = int64(i)
	}
	return edges
}

func openWindowed(t *testing.T, opts ...gsketch.Option) *gsketch.Engine {
	t.Helper()
	eng, err := gsketch.Open(engineTestCfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestEngineWindows: a windowed engine answers a range of whole windows at
// or above the exact count of the edges in it, a range over every window
// with the Query estimate, and after SaveSnapshot → Open(WithRestoreFile,
// WithWindows), or a live Restore, with identical answers.
func TestEngineWindows(t *testing.T) {
	const span = 500
	edges := windowedStream(5_000, 19)
	qs := engineTestQueries(edges, 100)
	wcfg := gsketch.WindowConfig{Span: span, SampleSize: 256}
	eng := openWindowed(t, gsketch.WithSample(edges[:500]), gsketch.WithWindows(wcfg),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 4})) // runs one worker
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Generations(); got != len(edges)/span {
		t.Fatalf("%d windows, want %d", got, len(edges)/span)
	}
	if got := eng.Estimator().Count(); got != totalWeight(edges) {
		t.Fatalf("count %d, want %d", got, totalWeight(edges))
	}

	for _, r := range [][2]int64{{0, span - 1}, {span, 3*span - 1}, {4 * span, 10*span - 1}} {
		exact := stream.NewExactCounter()
		exact.ObserveAll(edges[r[0]:min(r[1]+1, int64(len(edges)))])
		got, err := eng.QueryWindow(qs, r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if truth := exact.EdgeFrequency(q.Src, q.Dst); got[i] < float64(truth) {
				t.Fatalf("[%d, %d] query %d: %v below the exact %d", r[0], r[1], i, got[i], truth)
			}
		}
	}
	all, err := eng.QueryWindow(qs, math.MinInt64, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	batch := eng.QueryBatch(qs)
	for i := range qs {
		if all[i] != float64(batch[i].Estimate) {
			t.Fatalf("query %d: full timeline %v, Query %d", i, all[i], batch[i].Estimate)
		}
	}

	path := filepath.Join(t.TempDir(), "windows.snap")
	if _, err := eng.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	part, err := eng.QueryWindow(qs, 700, 2900)
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, e *gsketch.Engine) {
		t.Helper()
		if got := e.Generations(); got != eng.Generations() {
			t.Fatalf("%s: %d windows, want %d", what, got, eng.Generations())
		}
		if got := e.QueryBatch(qs); !slices.Equal(got, batch) {
			t.Fatalf("%s: QueryBatch differs", what)
		}
		got, err := e.QueryWindow(qs, 700, 2900)
		if err != nil || !slices.Equal(got, part) {
			t.Fatalf("%s: QueryWindow %v (%v), want %v", what, got, err, part)
		}
	}
	same("reopened", openWindowed(t, gsketch.WithRestoreFile(path), gsketch.WithWindows(wcfg)))

	live := openWindowed(t, gsketch.WithGlobal(), gsketch.WithWindows(wcfg))
	if err := live.RestoreSnapshot(path); err != nil {
		t.Fatal(err)
	}
	same("restored", live)
}

// TestEngineWindowIngestDuringRotations: Ingest, TryIngest and Admit race
// across window boundaries, late and negative times included, and Count
// ends at every edge sent: all three write through the one chain.
func TestEngineWindowIngestDuringRotations(t *testing.T) {
	eng := openWindowed(t, gsketch.WithGlobal(),
		gsketch.WithWindows(gsketch.WindowConfig{Span: 300, SampleSize: 128}),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 64}))
	const perWriter = 3_000
	var wg sync.WaitGroup
	var sent int64
	for w := 0; w < 3; w++ {
		edges := windowedStream(perWriter, int64(60+w))
		for i := range edges {
			switch i % 50 {
			case 0:
				edges[i].Time = -1
			case 1:
				edges[i].Time /= 3
			}
		}
		sent += totalWeight(edges)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(edges); lo += 100 {
				batch := edges[lo:min(lo+100, len(edges))]
				switch w {
				case 0:
					if err := eng.Ingest(context.Background(), batch...); err != nil {
						t.Error(err)
					}
				case 1:
					for len(batch) > 0 {
						n, err := eng.TryIngest(batch)
						if err != nil && !errors.Is(err, gsketch.ErrIngestQueueFull) {
							t.Error(err)
							return
						}
						batch = batch[n:]
					}
				case 2:
					adm, err := eng.Admit(batch)
					if err != nil {
						t.Error(err)
						return
					}
					adm.Apply()
				}
			}
		}()
	}
	wg.Wait()
	if err := eng.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := eng.Estimator().Count(); got != sent {
		t.Fatalf("count %d, want %d", got, sent)
	}
	if got := eng.Generations(); got != perWriter/300 {
		t.Fatalf("%d windows, want %d", got, perWriter/300)
	}
}

// TestEngineWindowsAtReaderLimit: a windowed engine keeps at most the
// generations a snapshot can hold, dropping the oldest window, so its
// snapshot always reads back.
func TestEngineWindowsAtReaderLimit(t *testing.T) {
	cfg := gsketch.Config{TotalBytes: 2 << 10, Seed: 3}
	wcfg := gsketch.WindowConfig{Span: 10, SampleSize: 16}
	eng, err := gsketch.Open(cfg, gsketch.WithGlobal(), gsketch.WithWindows(wcfg))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const windows = core.MaxChainGenerations + 20
	for w := 0; w < windows; w++ {
		if err := eng.Ingest(context.Background(), gsketch.Edge{Src: 1, Dst: 2, Time: int64(w) * 20}); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Generations(); got != core.MaxChainGenerations {
		t.Fatalf("%d windows, want the limit %d", got, core.MaxChainGenerations)
	}
	if got := eng.Estimator().Count(); got != core.MaxChainGenerations {
		t.Fatalf("count %d, want the %d edges of the windows kept", got, core.MaxChainGenerations)
	}
	path := filepath.Join(t.TempDir(), "limit.snap")
	if _, err := eng.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	back, err := gsketch.Open(cfg, gsketch.WithRestoreFile(path), gsketch.WithWindows(wcfg))
	if err != nil {
		t.Fatalf("a snapshot at the limit does not read back: %v", err)
	}
	defer back.Close()
	got, err := back.QueryWindow([]gsketch.EdgeQuery{{Src: 1, Dst: 2}}, (windows-1)*20, (windows-1)*20+9)
	if err != nil || got[0] != 1 {
		t.Fatalf("last window answers %v (%v), want 1", got, err)
	}
}

// TestWindowsOpenValidation: windows exclude the adaptive and lifecycle
// options, and no chain may be capped past what a snapshot can hold.
func TestWindowsOpenValidation(t *testing.T) {
	sample := gsketch.WithSample(windowedStream(100, 1))
	wopt := gsketch.WithWindows(gsketch.WindowConfig{Span: 10, SampleSize: 16})
	for name, opts := range map[string][]gsketch.Option{
		"adaptive":    {wopt, gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{})},
		"compaction":  {wopt, gsketch.WithCompaction(gsketch.CompactionPolicy{MaxGenerations: 4}, nil)},
		"tiering":     {wopt, gsketch.WithTiering(t.TempDir(), 1)},
		"zero span":   {gsketch.WithWindows(gsketch.WindowConfig{SampleSize: 16})},
		"zero sample": {gsketch.WithWindows(gsketch.WindowConfig{Span: 10})},
		"cap past the reader limit": {gsketch.WithAdaptive(
			gsketch.ChainConfig{MaxGenerations: core.MaxChainGenerations + 1}, gsketch.AdaptConfig{})},
	} {
		if eng, err := gsketch.Open(engineTestCfg, append([]gsketch.Option{sample}, opts...)...); err == nil {
			eng.Close()
			t.Errorf("%s: Open succeeded, want an error", name)
		}
	}
	g, err := core.BuildGlobalSketch(engineTestCfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng, err := gsketch.Open(engineTestCfg, gsketch.WithEstimator(adapt.NewChain(g, adapt.ChainConfig{})), wopt); err == nil {
		eng.Close()
		t.Error("WithWindows adopting a *Chain: Open succeeded, want an error")
	}
}

// cancelAfter counts the edges it folds and cancels its context once the
// count reaches after.
type cancelAfter struct {
	edges  atomic.Int64
	after  int64
	cancel context.CancelFunc
}

func (c *cancelAfter) UpdateBatch(es []gsketch.Edge) {
	if c.edges.Add(int64(len(es))) >= c.after {
		c.cancel()
	}
}
func (c *cancelAfter) EstimateBatch(qs []gsketch.EdgeQuery) []gsketch.Result {
	return make([]gsketch.Result, len(qs))
}
func (c *cancelAfter) Count() int64     { return c.edges.Load() }
func (c *cancelAfter) MemoryBytes() int { return 0 }

// TestIngestCancelReportsPrefix: an Ingest whose context ends between two
// chunks stops there, says how many edges it applied, and exactly those are
// counted, with no Drain.
func TestIngestCancelReportsPrefix(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	est := &cancelAfter{after: 35, cancel: cancel} // ends in the fourth chunk
	eng, err := gsketch.Open(engineTestCfg, gsketch.WithEstimator(est),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 1, BatchSize: 10}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	err = eng.Ingest(ctx, make([]gsketch.Edge, 1_000)...)
	var ce *gsketch.IngestCanceledError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("Ingest cancelled mid-call = %v, want an IngestCanceledError wrapping context.Canceled", err)
	}
	if ce.Accepted != 40 {
		t.Fatalf("reported prefix %d, want the 4 chunks of 10 folded before the cancellation was seen", ce.Accepted)
	}
	if got := est.Count(); got != int64(ce.Accepted) {
		t.Fatalf("count %d, want the reported prefix %d", got, ce.Accepted)
	}
}

func totalWeight(edges []gsketch.Edge) int64 {
	var n int64
	for _, e := range edges {
		n += e.Increment()
	}
	return n
}
