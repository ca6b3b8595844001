package adapt

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"github.com/graphstream/gsketch/internal/compact"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// chainQueries turns the first n distinct edges into a query batch.
func chainQueries(edges []stream.Edge, n int) []core.EdgeQuery {
	seen := make(map[[2]uint64]struct{})
	var qs []core.EdgeQuery
	for _, e := range edges {
		k := [2]uint64{e.Src, e.Dst}
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
		if len(qs) >= n {
			break
		}
	}
	return qs
}

// Compacting a chain whose generations share a layout must fold exactly:
// volume conserved, lineage accumulated, and every answer still at least
// the uncompacted chain's (and within the combined ε·N bound of truth).
func TestChainCompactExactEquivalence(t *testing.T) {
	edges := testStream(24000, 41)
	cfg := core.Config{TotalBytes: 64 << 10, Seed: 9}
	build := func() *core.GSketch {
		g, err := core.BuildGSketch(cfg, edges[:1500], nil)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Three generations from the identical sample + config ⇒ identical
	// layouts ⇒ the fold must take the exact path.
	chain := NewChain(build(), ChainConfig{SampleSize: 1024, Seed: 3})
	chain.UpdateBatch(edges[:8000])
	if err := chain.Rotate(build()); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[8000:16000])
	if err := chain.Rotate(build()); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[16000:])

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	qs := chainQueries(edges, 1500)
	before := chain.EstimateBatch(qs)
	wantCount := chain.Count()

	res, err := chain.Compact(2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("identical layouts must compact via the exact path")
	}
	if res.Folded != 2 || res.Generations != 2 {
		t.Fatalf("result = %+v, want 2 folded into a 2-generation chain", res)
	}
	if chain.Generations() != 2 {
		t.Fatalf("generations = %d, want 2", chain.Generations())
	}
	if got := chain.Count(); got != wantCount {
		t.Fatalf("count = %d, want conserved %d", got, wantCount)
	}
	if st := chain.LifecycleStats(); st.CompactedFrom != 3 {
		t.Fatalf("compacted-from = %d, want 3", st.CompactedFrom)
	}

	after := chain.EstimateBatch(qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		// Cell-wise merge takes min over summed rows: answers can only
		// stay or grow relative to the per-generation gather, never
		// shrink below it (and never below truth).
		if after[i].Estimate < before[i].Estimate {
			t.Fatalf("edge (%d,%d): estimate shrank %d -> %d across exact compaction",
				q.Src, q.Dst, before[i].Estimate, after[i].Estimate)
		}
		if after[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): compacted estimate %d < truth %d", q.Src, q.Dst, after[i].Estimate, truth)
		}
		// The compacted bound is ε·ΣN_i — the same total mass the
		// uncompacted chain advertised; realized error must stay inside it.
		if over := float64(after[i].Estimate - truth); over > after[i].ErrorBound {
			t.Fatalf("edge (%d,%d): overcount %.0f exceeds combined bound %.1f",
				q.Src, q.Dst, over, after[i].ErrorBound)
		}
		if after[i].StreamTotal != wantCount {
			t.Fatalf("edge (%d,%d): stream total %d, want %d", q.Src, q.Dst, after[i].StreamTotal, wantCount)
		}
		// Fewer generations ⇒ the union bound over confidences tightens.
		if after[i].Confidence < before[i].Confidence {
			t.Fatalf("edge (%d,%d): confidence loosened %.4f -> %.4f",
				q.Src, q.Dst, before[i].Confidence, after[i].Confidence)
		}
	}
}

// Re-ingest compaction (incompatible layouts, lossless reservoirs) must
// conserve volume and keep every answer within the combined ε·N bound of
// exact truth — the bounds-equivalence acceptance check.
func TestChainCompactReingestWithinBounds(t *testing.T) {
	edges := testStream(18000, 43)
	cfg := core.Config{TotalBytes: 64 << 10, Seed: 5}
	// SampleSize ≥ every segment length ⇒ each frozen generation retains
	// its whole slice ⇒ the re-ingest replay is lossless.
	chain := NewChain(buildSketch(t, edges[:1200], 5), ChainConfig{SampleSize: 8000, Seed: 3})
	chain.UpdateBatch(edges[:6000])
	// Repartition builds from the chain's own reservoir with a different
	// seed: a different layout, so the later fold cannot merge cell-wise.
	if _, err := Repartition(chain, core.Config{TotalBytes: 32 << 10, Seed: 77}, nil); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[6000:12000])
	if _, err := Repartition(chain, core.Config{TotalBytes: 48 << 10, Seed: 99}, nil); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[12000:])

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	qs := chainQueries(edges, 1200)
	wantCount := chain.Count()

	res, err := chain.Compact(2, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact {
		t.Fatal("incompatible layouts cannot compact exactly")
	}
	if got := chain.Count(); got != wantCount {
		t.Fatalf("count = %d, want conserved %d", got, wantCount)
	}

	after := chain.EstimateBatch(qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if after[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): re-ingested estimate %d < truth %d", q.Src, q.Dst, after[i].Estimate, truth)
		}
		if over := float64(after[i].Estimate - truth); over > after[i].ErrorBound {
			t.Fatalf("edge (%d,%d): overcount %.0f exceeds combined bound %.1f",
				q.Src, q.Dst, over, after[i].ErrorBound)
		}
	}

	// One frozen generation left: nothing further to fold.
	if _, err := chain.Compact(2, cfg, nil); !errors.Is(err, ErrNothingToCompact) {
		t.Fatalf("compact on a 2-generation chain: %v, want ErrNothingToCompact", err)
	}
}

// A generation whose stream volume saturated at MaxInt64 must still fold by
// re-ingest: its reservoir's weights sum past MaxInt64 too, and the replay
// has to saturate with them rather than wrap. Under a compaction policy at
// the generation cap a failed fold here would refuse every later rotation.
func TestChainCompactSaturatedVolume(t *testing.T) {
	edges := testStream(6000, 59)
	heavy := []stream.Edge{{Src: 7, Dst: 9, Weight: 1 << 62}, {Src: 8, Dst: 3, Weight: 1 << 62}}
	chain := NewChain(buildSketch(t, edges[:1000], 5), ChainConfig{SampleSize: 8192, Seed: 3})
	chain.UpdateBatch(edges[:3000])
	chain.UpdateBatch(heavy)
	if _, err := Repartition(chain, core.Config{TotalBytes: 32 << 10, Seed: 77}, nil); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[3000:])
	if _, err := Repartition(chain, core.Config{TotalBytes: 48 << 10, Seed: 99}, nil); err != nil {
		t.Fatal(err)
	}
	if got := chain.Count(); got != math.MaxInt64 {
		t.Fatalf("count = %d before the fold, want saturated", got)
	}

	res, err := chain.Compact(2, core.Config{TotalBytes: 64 << 10, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact || res.Folded != 2 {
		t.Fatalf("compaction = %+v, want a 2-generation re-ingest fold", res)
	}
	if got := chain.Count(); got != math.MaxInt64 {
		t.Fatalf("count = %d after the fold, want saturated", got)
	}
	// Counter cells saturate at 2³²−1, so that is what a heavy edge reads.
	for _, e := range heavy {
		if got := chain.EstimateEdge(e.Src, e.Dst); got < math.MaxUint32 {
			t.Fatalf("edge (%d,%d): estimate %d below a saturated cell", e.Src, e.Dst, got)
		}
	}
}

// Driving a capped chain with a fold width through many pivots must never
// refuse a rotation: each rotation at the cap folds first, the generation
// count stays bounded, memory plateaus, and volume is never lost. This is
// the former-ErrMaxGenerations acceptance scenario at the chain level.
func TestChainPastCapWithCompaction(t *testing.T) {
	const cap = 3
	edges := testStream(52000, 47)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 9}
	chain := NewChain(buildSketch(t, edges[:1000], 9), ChainConfig{SampleSize: 2048, Seed: 3, MaxGenerations: cap})
	folds := 0
	chain.SetCompaction(2, func(compact.Result) { folds++ })

	seg := len(edges) / 13
	var peak int
	for i := 0; i < 12; i++ {
		chain.UpdateBatch(edges[i*seg : (i+1)*seg])
		if _, err := Repartition(chain, cfg, nil); err != nil {
			t.Fatalf("pivot %d: rotation refused despite compaction: %v", i, err)
		}
		if g := chain.Generations(); g > cap {
			t.Fatalf("pivot %d: %d generations, cap %d", i, g, cap)
		}
		if m := chain.MemoryBytes(); m > peak {
			peak = m
		}
	}
	chain.UpdateBatch(edges[12*seg:])

	// Memory plateaued at the cap's footprint, not 13 generations' worth.
	if limit := (cap + 1) * (48 << 10); peak > limit {
		t.Fatalf("peak memory %d exceeds cap plateau %d", peak, limit)
	}
	var want int64
	for _, e := range edges {
		want += e.Weight
	}
	if got := chain.Count(); got != want {
		t.Fatalf("volume %d, want %d after 12 pivots with compaction", got, want)
	}
	if st := chain.LifecycleStats(); st.CompactedFrom != 13 {
		t.Fatalf("compacted-from = %d, want all 13 source builds", st.CompactedFrom)
	}
	// The first two pivots rotate under the cap; the other ten fold first.
	if folds != 10 {
		t.Fatalf("observer saw %d folds, want 10", folds)
	}
}

// A refused fold is returned once for each generation count: CompactOnce
// stays quiet at the count a fold was refused at, and a rotation below the
// cap, which changes the count, makes it try and return the refusal again.
// At the cap, a rotation's fold is refused once as ErrMaxGenerations
// wrapping compact.ErrUnfoldable, then as the cap refuses. Compact tries
// every time.
func TestRefusedFoldReportedOncePerCount(t *testing.T) {
	edges := testStream(8000, 71)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 9}
	// Restored generations of three layouts keep no sample: no fold of
	// theirs can merge or re-ingest.
	gens := make([]*core.GSketch, 3)
	for i := range gens {
		seg := edges[i*1000 : (i+1)*1000]
		gens[i] = buildSketch(t, seg, uint64(i+1))
		core.Populate(gens[i], seg)
	}
	chain := NewChainFromMeta(gens, nil, ChainConfig{SampleSize: 1024, Seed: 3, MaxGenerations: 5})
	folds := 0
	chain.SetCompaction(2, func(compact.Result) { folds++ })
	refusedOnce := func(g int) {
		t.Helper()
		if n := chain.Generations(); n != g {
			t.Fatalf("%d generations, want %d", n, g)
		}
		if _, err := chain.CompactOnce(2, cfg, nil); !errors.Is(err, compact.ErrUnfoldable) {
			t.Fatalf("first fold at %d generations: %v, want compact.ErrUnfoldable", g, err)
		}
		if res, err := chain.CompactOnce(2, cfg, nil); err != nil || res.Folded != 0 {
			t.Fatalf("second fold at %d generations: %+v, %v, want no fold and no error", g, res, err)
		}
	}
	refusedOnce(3)
	for i := 0; i < 2; i++ {
		if _, err := chain.Compact(2, cfg, nil); !errors.Is(err, compact.ErrUnfoldable) {
			t.Fatalf("manual fold %d: %v, want compact.ErrUnfoldable", i, err)
		}
	}

	chain.UpdateBatch(edges[3000:5000])
	if _, err := Repartition(chain, cfg, nil); err != nil {
		t.Fatal(err)
	}
	refusedOnce(4)

	chain.UpdateBatch(edges[5000:])
	if _, err := Repartition(chain, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Repartition(chain, cfg, nil); !errors.Is(err, ErrMaxGenerations) || !errors.Is(err, compact.ErrUnfoldable) {
		t.Fatalf("first rotation at the cap: %v, want ErrMaxGenerations wrapping compact.ErrUnfoldable", err)
	}
	if _, err := Repartition(chain, cfg, nil); !errors.Is(err, ErrMaxGenerations) || errors.Is(err, compact.ErrUnfoldable) {
		t.Fatalf("second rotation at the cap: %v, want ErrMaxGenerations alone", err)
	}
	if g := chain.Generations(); g != 5 || folds != 0 {
		t.Fatalf("%d generations and %d folds, want 5 and none", g, folds)
	}
}

// Tiering: frozen generations past the resident cap spill to disk, queries
// lazily reload them with identical answers, and a chain snapshot written
// while generations are spilled still round-trips.
func TestChainTieringSpillReloadAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	edges := testStream(20000, 53)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 7}
	chain := NewChain(buildSketch(t, edges[:1000], 7), ChainConfig{SampleSize: 2048, Seed: 3, MaxGenerations: 8})
	chain.SetTiering(dir, 1)

	seg := len(edges) / 4
	for i := 0; i < 3; i++ {
		chain.UpdateBatch(edges[i*seg : (i+1)*seg])
		if _, err := Repartition(chain, cfg, nil); err != nil {
			t.Fatal(err)
		}
	}
	chain.UpdateBatch(edges[3*seg:])

	// 4 generations, 3 frozen, resident cap 1 ⇒ 2 spilled.
	st := chain.LifecycleStats()
	if st.Generations != 4 || st.Tiered < 2 {
		t.Fatalf("lifecycle = %+v, want 4 generations with ≥2 tiered", st)
	}
	if st.TieredBytes <= 0 {
		t.Fatalf("tiered bytes = %d, want > 0 while evicted", st.TieredBytes)
	}
	if full := 4 * (32 << 10); chain.MemoryBytes() >= full {
		t.Fatalf("resident footprint %d did not shrink under tiering", chain.MemoryBytes())
	}

	// Answers gather across spilled generations via lazy reload and still
	// cover the whole stream.
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	qs := chainQueries(edges, 800)
	res := chain.EstimateBatch(qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if res[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): estimate %d < truth %d with tiered generations",
				q.Src, q.Dst, res[i].Estimate, truth)
		}
	}

	// Snapshot with spilled generations streams straight from tier files.
	chain.EnforceResidency()
	var buf bytes.Buffer
	if _, err := chain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	gens, metas, err := core.ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	restored := NewChainFromMeta(gens, metas, chain.Config())
	if restored.Count() != chain.Count() {
		t.Fatalf("restored count %d != live %d", restored.Count(), chain.Count())
	}
	got := restored.EstimateBatch(qs)
	for i := range qs {
		if got[i].Estimate != res[i].Estimate {
			t.Fatalf("query %d: restored %d != live %d", i, got[i].Estimate, res[i].Estimate)
		}
	}
}

// A chain snapshot taken AFTER a compaction must round-trip: the folded
// generation's lifecycle record (lineage, build time) survives the v4
// container and the restored chain answers identically.
func TestChainSnapshotRoundTripAfterCompaction(t *testing.T) {
	edges := testStream(15000, 61)
	cfg := core.Config{TotalBytes: 32 << 10, Seed: 5}
	chain := NewChain(buildSketch(t, edges[:1000], 5), ChainConfig{SampleSize: 4096, Seed: 3})
	chain.UpdateBatch(edges[:5000])
	if _, err := Repartition(chain, cfg, nil); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[5000:10000])
	if _, err := Repartition(chain, cfg, nil); err != nil {
		t.Fatal(err)
	}
	chain.UpdateBatch(edges[10000:])
	if _, err := chain.Compact(2, cfg, nil); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if _, err := chain.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	gens, metas, err := core.ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("snapshot carries %d generations, want 2 after compaction", len(gens))
	}
	if metas[0].CompactedFrom != 2 {
		t.Fatalf("restored lineage %d, want 2", metas[0].CompactedFrom)
	}
	restored := NewChainFromMeta(gens, metas, chain.Config())
	if restored.Count() != chain.Count() {
		t.Fatalf("restored count %d != live %d", restored.Count(), chain.Count())
	}
	if st := restored.LifecycleStats(); st.CompactedFrom != 3 {
		t.Fatalf("restored compacted-from %d, want 3", st.CompactedFrom)
	}
	qs := chainQueries(edges, 600)
	want := chain.EstimateBatch(qs)
	got := restored.EstimateBatch(qs)
	for i := range qs {
		if got[i].Estimate != want[i].Estimate || got[i].ErrorBound != want[i].ErrorBound {
			t.Fatalf("query %d: restored (%d, %v) != live (%d, %v)",
				i, got[i].Estimate, got[i].ErrorBound, want[i].Estimate, want[i].ErrorBound)
		}
	}

	// A restored chain (no retained reservoirs) still compacts when its
	// layouts allow the exact path; here they differ, so it must refuse
	// rather than fabricate volume.
	if res, err := restored.Compact(2, cfg, nil); err == nil {
		t.Fatalf("restored chain with incompatible layouts compacted: %+v", res)
	}
}
