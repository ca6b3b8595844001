package gsketch_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
)

// Driving an engine through many pivots with a compaction policy must make
// ErrMaxGenerations unreachable: the former hard cap becomes compaction
// pressure, generations stay bounded, memory plateaus, and every answer
// still covers the whole stream. This is the tentpole acceptance scenario
// through the public API.
func TestEngineAutoCompactionPastCap(t *testing.T) {
	const cap = 3
	ctx := context.Background()
	edges := engineTestStream(60000, 77)
	sample := edges[:2000]

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(sample),
		gsketch.WithAdaptive(
			gsketch.ChainConfig{SampleSize: 2048, Seed: 7, MaxGenerations: cap},
			gsketch.AdaptConfig{},
		),
		gsketch.WithCompaction(gsketch.CompactionPolicy{
			MaxGenerations: cap,
			Fold:           2,
			Interval:       time.Hour, // rotation pressure drives the folds deterministically
		}, nil),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// 12 pivots: each phase ingests a slice and rotates. Past the cap the
	// manager must fold instead of refusing.
	const pivots = 12
	seg := len(edges) / (pivots + 1)
	var peak int
	for p := 0; p < pivots; p++ {
		if err := eng.Ingest(ctx, edges[p*seg:(p+1)*seg]...); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Repartition(); err != nil {
			t.Fatalf("pivot %d: repartition refused despite compaction policy: %v", p, err)
		}
		st := eng.Stats()
		if st.Adapt.Generations > cap {
			t.Fatalf("pivot %d: %d generations, cap %d", p, st.Adapt.Generations, cap)
		}
		if st.MemoryBytes > peak {
			peak = st.MemoryBytes
		}
	}
	if err := eng.Ingest(ctx, edges[pivots*seg:]...); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.Adapt.Compactions == 0 {
		t.Fatal("no compactions recorded across 12 pivots at cap 3")
	}
	// The chain represents every source build despite holding ≤cap
	// generations.
	if st.Adapt.CompactedFrom != pivots+1 {
		t.Fatalf("compacted-from = %d, want %d source builds", st.Adapt.CompactedFrom, pivots+1)
	}
	if limit := (cap + 1) * (96 << 10); peak > limit {
		t.Fatalf("peak memory %d exceeds the cap plateau %d", peak, limit)
	}

	// Volume conservation chain-wide.
	var want int64
	for _, e := range edges {
		want += e.Weight
	}
	if got := eng.Stats().StreamTotal; got != want {
		t.Fatalf("stream total %d, want %d after %d pivots", got, want, pivots)
	}
}

// WithTiering through the facade: cold generations spill under
// the residency cap (visible in stats), answers survive spill + lazy
// reload, a snapshot round-trips with lifecycle state reapplied, and
// manual Engine.Compact works alongside.
func TestEngineTieringSnapshot(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	edges := engineTestStream(30000, 79)
	qs := engineTestQueries(edges, 200)

	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:2000]),
		gsketch.WithAdaptive(
			gsketch.ChainConfig{SampleSize: 32768, Seed: 7, MaxGenerations: 8},
			gsketch.AdaptConfig{},
		),
		gsketch.WithTiering(filepath.Join(dir, "tiers"), 1),
		gsketch.WithSnapshotFile(filepath.Join(dir, "chain.gsk")),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	seg := len(edges) / 4
	for p := 0; p < 3; p++ {
		if err := eng.Ingest(ctx, edges[p*seg:(p+1)*seg]...); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Repartition(); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Ingest(ctx, edges[3*seg:]...); err != nil {
		t.Fatal(err)
	}

	// 4 generations, resident cap 1 ⇒ spilled cold generations show up in
	// the lifecycle gauges.
	st := eng.Stats()
	if st.Adapt.Generations != 4 {
		t.Fatalf("generations = %d, want 4", st.Adapt.Generations)
	}
	if st.Adapt.TieredGenerations < 2 || st.Adapt.TieredBytes <= 0 {
		t.Fatalf("tiering gauges = %d gens / %d bytes, want ≥2 spilled", st.Adapt.TieredGenerations, st.Adapt.TieredBytes)
	}
	if st.Adapt.ResidentGenerations >= st.Adapt.Generations {
		t.Fatalf("resident = %d of %d, want fewer under the cap", st.Adapt.ResidentGenerations, st.Adapt.Generations)
	}

	// Gathered answers (lazy reloads included) cover the stream.
	live := eng.QueryBatch(qs)
	exact := map[[2]uint64]int64{}
	for _, e := range edges {
		exact[[2]uint64{e.Src, e.Dst}] += e.Weight
	}
	for i, q := range qs {
		if truth := exact[[2]uint64{q.Src, q.Dst}]; live[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): estimate %d < truth %d with tiered generations", q.Src, q.Dst, live[i].Estimate, truth)
		}
	}

	// Manual compaction through the facade folds the two oldest frozen
	// generations (their tier files are discarded with them).
	res, err := eng.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if res.Folded != 2 || res.Generations != 3 {
		t.Fatalf("manual compact = %+v, want 2 folded into 3 generations", res)
	}
	if got := eng.Stats().Adapt.Compactions; got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}

	// Snapshot (spilled or resident alike) → restore: generations,
	// lifecycle lineage and answers survive; tiering re-applied to the
	// restored chain keeps serving.
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	want := eng.QueryBatch(qs)
	if err := eng.RestoreSnapshot(""); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Adapt.Generations != 3 || st.Adapt.CompactedFrom != 4 {
		t.Fatalf("restored chain = %d generations from %d builds, want 3 from 4", st.Adapt.Generations, st.Adapt.CompactedFrom)
	}
	got := eng.QueryBatch(qs)
	for i := range qs {
		if got[i].Estimate != want[i].Estimate {
			t.Fatalf("query %d: restored estimate %d != live %d", i, got[i].Estimate, want[i].Estimate)
		}
	}
}

// Lifecycle options demand a generation chain to act on: Open must refuse
// them on a plain sketch rather than silently doing nothing.
func TestLifecycleOptionsNeedChain(t *testing.T) {
	edges := engineTestStream(4000, 81)
	bad := [][]gsketch.Option{
		{gsketch.WithSample(edges[:500]), gsketch.WithCompaction(gsketch.CompactionPolicy{MaxGenerations: 2}, nil)},
		{gsketch.WithSample(edges[:500]), gsketch.WithTiering(t.TempDir(), 1)},
	}
	for i, opts := range bad {
		if eng, err := gsketch.Open(engineTestCfg, opts...); err == nil {
			eng.Close()
			t.Fatalf("case %d: lifecycle option accepted without an adaptive chain", i)
		}
	}
	// Half-configured tiering is a validation error, not a silent default.
	if eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:500]),
		gsketch.WithAdaptive(gsketch.ChainConfig{}, gsketch.AdaptConfig{}),
		gsketch.WithTiering("", 3),
	); err == nil {
		eng.Close()
		t.Fatal("tiering with no directory accepted")
	}
}

// TestRestoreDiscardsDisplacedTierFiles: a Restore removes the tier files of
// the chain it displaces once that chain's pipeline has drained, so across
// restore → ingest → repartition cycles the tier directory holds the
// serving chain's spilled generations and nothing else.
func TestRestoreDiscardsDisplacedTierFiles(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	tiers := filepath.Join(dir, "tiers")
	edges := engineTestStream(24_000, 83)
	eng, err := gsketch.Open(engineTestCfg,
		gsketch.WithSample(edges[:2_000]),
		gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 4096, Seed: 7, MaxGenerations: 8}, gsketch.AdaptConfig{}),
		gsketch.WithTiering(tiers, 1),
		gsketch.WithSnapshotFile(filepath.Join(dir, "chain.gsk")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	seg := len(edges) / 8
	for p := 0; p < 2; p++ {
		if err := eng.Ingest(ctx, edges[p*seg:(p+1)*seg]...); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Repartition(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if err := eng.RestoreSnapshot(""); err != nil {
			t.Fatal(err)
		}
		if err := eng.Ingest(ctx, edges[(2+cycle)*seg:(3+cycle)*seg]...); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Repartition(); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(tiers)
		if err != nil {
			t.Fatal(err)
		}
		if tiered := eng.Stats().Adapt.TieredGenerations; tiered == 0 || len(files) != tiered {
			t.Fatalf("cycle %d: %d files in the tier directory, want one for each of the %d tiered generations", cycle, len(files), tiered)
		}
	}
}
