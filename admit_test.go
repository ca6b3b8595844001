package gsketch_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
)

// gatedEstimator blocks every fold on a gate, so a test can hold a batch in
// the admitted-but-unfolded state for as long as it likes.
type gatedEstimator struct {
	gate  chan struct{}
	edges atomic.Int64
}

func (g *gatedEstimator) UpdateBatch(es []gsketch.Edge) { <-g.gate; g.edges.Add(int64(len(es))) }
func (g *gatedEstimator) EstimateBatch(qs []gsketch.EdgeQuery) []gsketch.Result {
	return make([]gsketch.Result, len(qs))
}
func (g *gatedEstimator) Count() int64     { return g.edges.Load() }
func (g *gatedEstimator) MemoryBytes() int { return 0 }

// stillRunning starts fn on its own goroutine and fails the test if it
// returns within the grace period; done is closed when it finally does.
func stillRunning(t *testing.T, what string, fn func()) (done <-chan struct{}) {
	t.Helper()
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		fn()
	}()
	select {
	case <-ch:
		t.Fatalf("%s returned over an admitted, unfolded batch", what)
	case <-time.After(50 * time.Millisecond):
	}
	return ch
}

func waitDone(t *testing.T, what string, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still waiting after the admitted batch was folded", what)
	}
}

// TestAdmitMatchesTryIngestByteIdentical: the same stream admitted in 1-,
// 256- and 8192-edge batches and folded by the caller leaves a snapshot
// byte-identical to the one TryIngest + Drain leaves, none of it passes
// through the queue, and AppendQueryBatch into a reused buffer answers what
// QueryBatch answers.
func TestAdmitMatchesTryIngestByteIdentical(t *testing.T) {
	edges := engineTestStream(20_000, 41)
	open := func() *gsketch.Engine {
		eng, err := gsketch.Open(engineTestCfg,
			gsketch.WithSample(edges[:2_000]),
			gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256, QueueDepth: 2}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	ctx := context.Background()

	ref := open()
	for lo := 0; lo < len(edges); {
		n, err := ref.TryIngest(edges[lo:])
		if err != nil && !errors.Is(err, gsketch.ErrIngestQueueFull) {
			t.Fatal(err)
		}
		lo += n
	}
	if err := ref.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ref.Save(&want); err != nil {
		t.Fatal(err)
	}

	for _, frame := range []int{1, 256, 8192} {
		eng := open()
		batches := int64(0)
		for lo := 0; lo < len(edges); lo += frame {
			adm, err := eng.Admit(edges[lo:min(lo+frame, len(edges))])
			if err != nil {
				t.Fatal(err)
			}
			if st := eng.IngestStats(); st.Inflight != 1 || st.QueueDepth != 0 {
				t.Fatalf("frame %d: admitted batch shows inflight=%d queue=%d, want 1/0", frame, st.Inflight, st.QueueDepth)
			}
			adm.Apply()
			batches++
		}
		if err := eng.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := eng.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("frame %d: snapshot after Admit/Apply differs from the TryIngest snapshot", frame)
		}
		st := eng.IngestStats()
		if st.EdgesApplied != int64(len(edges)) || st.BatchesApplied != batches || st.Sheds != 0 {
			t.Fatalf("frame %d: edges=%d batches=%d sheds=%d, want %d/%d/0",
				frame, st.EdgesApplied, st.BatchesApplied, st.Sheds, len(edges), batches)
		}
	}

	qs := engineTestQueries(edges, 700)
	wantRes := ref.QueryBatch(qs)
	var buf []gsketch.Result
	for round := 0; round < 2; round++ { // the second round reuses a dirty buffer
		buf = ref.AppendQueryBatch(buf[:0], qs)
		if len(buf) != len(wantRes) {
			t.Fatalf("AppendQueryBatch answered %d, want %d", len(buf), len(wantRes))
		}
		for i := range wantRes {
			if buf[i] != wantRes[i] {
				t.Fatalf("round %d result %d = %+v, want %+v", round, i, buf[i], wantRes[i])
			}
		}
	}
	prefix := []gsketch.Result{{Estimate: -7}}
	if out := ref.AppendQueryBatch(prefix, qs[:3]); len(out) != 4 || out[0].Estimate != -7 || out[1] != wantRes[0] {
		t.Fatalf("AppendQueryBatch does not append: %+v", out)
	}
}

// TestAdmitHoldsDrainAndClose: an admitted batch is in flight from Admit to
// Apply, on an engine opened with WithIngest or without it. Drain times out
// over it, Close waits for it, the fold lands before Close returns, and
// nothing is admitted after.
func TestAdmitHoldsDrainAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []gsketch.Option
	}{
		{"WithIngest", []gsketch.Option{gsketch.WithIngest(gsketch.IngestConfig{Workers: 1})}},
		{"no WithIngest", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dest := &gatedEstimator{gate: make(chan struct{})}
			eng, err := gsketch.Open(gsketch.Config{}, append([]gsketch.Option{gsketch.WithEstimator(dest)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			edges := engineTestStream(100, 3)
			adm, err := eng.Admit(edges)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			if err := eng.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Drain over an admitted batch = %v, want deadline exceeded", err)
			}
			cancel()

			closed := stillRunning(t, "Close", func() { _ = eng.Close() })
			close(dest.gate)
			adm.Apply()
			waitDone(t, "Close", closed)
			if got := dest.Count(); got != int64(len(edges)) {
				t.Fatalf("folded %d edges, want %d", got, len(edges))
			}
			if _, err := eng.Admit(edges); !errors.Is(err, gsketch.ErrEngineClosed) {
				t.Fatalf("Admit after Close = %v, want ErrEngineClosed", err)
			}
		})
	}
}

// TestAdmitRacingRestore: a Restore that displaces the pipeline an admitted
// batch is registered in waits for the fold, the fold lands in the
// displaced estimator — before Restore returns, never after — and not in
// the restored one; the next admission goes to the restored state.
func TestAdmitRacingRestore(t *testing.T) {
	edges := engineTestStream(4_000, 29)
	donor, err := gsketch.Open(engineTestCfg, gsketch.WithSample(edges[:500]))
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if err := donor.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := donor.Save(&snap); err != nil {
		t.Fatal(err)
	}
	savedTotal := donor.Estimator().Count()

	dest := &gatedEstimator{gate: make(chan struct{})}
	eng, err := gsketch.Open(gsketch.Config{},
		gsketch.WithEstimator(dest), gsketch.WithIngest(gsketch.IngestConfig{Workers: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	adm, err := eng.Admit(edges[:300])
	if err != nil {
		t.Fatal(err)
	}
	var restoreErr error
	restored := stillRunning(t, "Restore", func() { restoreErr = eng.Restore(bytes.NewReader(snap.Bytes())) })
	close(dest.gate)
	adm.Apply()
	waitDone(t, "Restore", restored)
	if restoreErr != nil {
		t.Fatal(restoreErr)
	}
	if got := dest.Count(); got != 300 {
		t.Fatalf("displaced estimator folded %d edges, want 300", got)
	}
	if got := eng.Estimator().Count(); got != savedTotal {
		t.Fatalf("restored Count = %d, want the snapshot's %d: the displaced batch leaked into it", got, savedTotal)
	}
	adm, err = eng.Admit(edges[:10])
	if err != nil {
		t.Fatal(err)
	}
	adm.Apply()
	if got := eng.Estimator().Count(); got <= savedTotal {
		t.Fatalf("admission after Restore did not reach the restored estimator: Count = %d", got)
	}
	if got := dest.Count(); got != 300 {
		t.Fatalf("admission after Restore reached the displaced estimator: %d edges", got)
	}
}

// TestAdmitFeedsWindows: the windows hold an admitted batch by the time a
// Drain returns, as they hold Ingest's.
func TestAdmitFeedsWindows(t *testing.T) {
	wcfg := gsketch.WindowConfig{Span: 100, SampleSize: 256}
	edges := engineTestStream(2_000, 19)
	for i := range edges {
		edges[i].Time = int64(i)
	}
	qs := engineTestQueries(edges, 50)
	open := func() *gsketch.Engine {
		eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(edges[:500]),
			gsketch.WithWindows(wcfg), gsketch.WithIngest(gsketch.IngestConfig{Workers: 1}))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	ref, eng := open(), open()
	if err := ref.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	adm, err := eng.Admit(edges)
	if err != nil {
		t.Fatal(err)
	}
	adm.Apply()
	for _, e := range []*gsketch.Engine{ref, eng} {
		if err := e.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ref.QueryWindow(qs, 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.QueryWindow(qs, 500, 1500)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window query %d after Admit = %v, after Ingest %v", i, got[i], want[i])
		}
	}
}

// TestHugeWeightsSaturateVolume: two edges of weight 2⁶² in one batch used
// to wrap the stream volume to −2⁶³ and turn every ε·N bound negative. Every
// volume now saturates at MaxInt64 — the engine's count, each answer's
// StreamTotal, the gauges — whether the batch is folded inline, by the
// pipeline, or into an adaptive chain whose answers sum two generations.
func TestHugeWeightsSaturateVolume(t *testing.T) {
	edges := engineTestStream(600, 41)
	huge := append([]gsketch.Edge(nil), edges[:100]...)
	huge[10].Weight, huge[50].Weight = 1<<62, 1<<62
	huge[51] = huge[50] // a run of two: folded into one position
	qs := engineTestQueries(huge, 64)
	for _, mode := range []string{"inline", "pipeline", "adaptive"} {
		opts := []gsketch.Option{gsketch.WithSample(edges[:200])}
		switch mode {
		case "pipeline":
			opts = append(opts, gsketch.WithIngest(gsketch.IngestConfig{Workers: 1, BatchSize: 64}))
		case "adaptive":
			opts = append(opts, gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 256, Seed: 1}, gsketch.AdaptConfig{}))
		}
		eng, err := gsketch.Open(engineTestCfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest(context.Background(), huge...); err != nil {
			t.Fatal(err)
		}
		if mode == "adaptive" {
			if _, err := eng.Repartition(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Ingest(context.Background(), huge...); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := eng.Estimator().Count(); got != math.MaxInt64 {
			t.Fatalf("%s: Count = %d, want MaxInt64", mode, got)
		}
		if got := eng.Stats().StreamTotal; got != math.MaxInt64 {
			t.Fatalf("%s: Stats().StreamTotal = %d, want MaxInt64", mode, got)
		}
		for i, r := range eng.QueryBatch(qs) {
			if r.StreamTotal != math.MaxInt64 || r.ErrorBound < 0 || r.Estimate < 0 {
				t.Fatalf("%s: query %d = %+v, want StreamTotal MaxInt64 and non-negative bounds", mode, i, r)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNegativeWeightRefused: every ingest entry point turns a batch with a
// negative weight away whole, typed, before anything is queued, applied or
// registered — the sketch it would reach panics on one.
func TestNegativeWeightRefused(t *testing.T) {
	edges := engineTestStream(600, 37)
	for _, pipeline := range []bool{false, true} {
		opts := []gsketch.Option{gsketch.WithSample(edges[:200])}
		if pipeline {
			opts = append(opts, gsketch.WithIngest(gsketch.IngestConfig{Workers: 1, BatchSize: 64}))
		}
		eng, err := gsketch.Open(engineTestCfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int64{-1, -5, math.MinInt64} {
			bad := append([]gsketch.Edge(nil), edges[:300]...)
			bad[299].Weight = w
			if err := eng.Ingest(context.Background(), bad...); !errors.Is(err, gsketch.ErrNegativeWeight) {
				t.Fatalf("Ingest(weight %d) = %v, want ErrNegativeWeight", w, err)
			}
			if n, err := eng.TryIngest(bad); n != 0 || !errors.Is(err, gsketch.ErrNegativeWeight) {
				t.Fatalf("TryIngest(weight %d) = (%d, %v), want (0, ErrNegativeWeight)", w, n, err)
			}
			adm, err := eng.Admit(bad)
			if !errors.Is(err, gsketch.ErrNegativeWeight) {
				t.Fatalf("Admit(weight %d) = %v, want ErrNegativeWeight", w, err)
			}
			adm.Apply() // the zero Admission of a refusal
		}
		if err := eng.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := eng.Estimator().Count(); got != 0 {
			t.Fatalf("pipeline=%v: Count = %d after refused batches, want 0", pipeline, got)
		}
		if st := eng.IngestStats(); st.Inflight != 0 || st.QueueDepth != 0 || st.EdgesApplied != 0 {
			t.Fatalf("refused batches left inflight=%d queued=%d applied=%d", st.Inflight, st.QueueDepth, st.EdgesApplied)
		}
		// The engine keeps serving.
		if err := eng.Ingest(context.Background(), edges...); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIngestReadsOwnWritesWithoutDrain: on a WithIngest engine, Ingest
// returns with its edges applied — Count holds the stream's total with no
// Drain — and none of them passed through the queue: every chunk of
// BatchSize edges counts as one applied batch.
func TestIngestReadsOwnWritesWithoutDrain(t *testing.T) {
	edges := engineTestStream(20_000, 43)
	eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(edges[:2_000]),
		gsketch.WithIngest(gsketch.IngestConfig{Workers: 2, BatchSize: 256, QueueDepth: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if got, want := eng.Estimator().Count(), totalWeight(edges); got != want {
		t.Fatalf("Count right after Ingest = %d, want the stream's %d", got, want)
	}
	st := eng.IngestStats()
	if wantBatches := int64((len(edges) + 255) / 256); st.EdgesApplied != int64(len(edges)) || st.BatchesApplied != wantBatches || st.Inflight != 0 || st.QueueDepth != 0 {
		t.Fatalf("after Ingest: applied %d edges in %d batches, inflight %d, queued %d; want %d in %d, 0, 0",
			st.EdgesApplied, st.BatchesApplied, st.Inflight, st.QueueDepth, len(edges), wantBatches)
	}
}

// TestRestoreRacesChunkedIngest: a Restore racing a many-chunk Ingest moves
// the rest of the call to the restored state. Every chunk lands whole in
// exactly one of the displaced and the restored state, so the restored
// Count is the snapshot's total plus whole chunks, and the two states'
// gains add up to the stream.
func TestRestoreRacesChunkedIngest(t *testing.T) {
	const chunk, chunks = 64, 400
	edges := engineTestStream(chunk*chunks, 47)
	for i := range edges {
		edges[i].Weight = 1
	}
	donor, err := gsketch.Open(engineTestCfg, gsketch.WithSample(edges[:2_000]))
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if err := donor.Ingest(context.Background(), edges[:1_000]...); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := donor.Save(&snap); err != nil {
		t.Fatal(err)
	}
	savedTotal := donor.Estimator().Count()

	for round := 0; round < 5; round++ {
		eng, err := gsketch.Open(engineTestCfg, gsketch.WithSample(edges[:2_000]),
			gsketch.WithIngest(gsketch.IngestConfig{Workers: 1, BatchSize: chunk}))
		if err != nil {
			t.Fatal(err)
		}
		displaced := eng.Estimator()
		ingested := make(chan error, 1)
		go func() { ingested <- eng.Ingest(context.Background(), edges...) }()
		for eng.IngestStats().BatchesApplied == 0 {
			runtime.Gosched()
		}
		if err := eng.Restore(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		if err := <-ingested; err != nil {
			t.Fatal(err)
		}
		before, after := displaced.Count(), eng.Estimator().Count()-savedTotal
		if before%chunk != 0 || after%chunk != 0 || before+after != int64(len(edges)) {
			t.Fatalf("round %d: %d edges in the displaced state and %d in the restored one, want whole %d-edge chunks adding to %d",
				round, before, after, chunk, len(edges))
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
