// Engine: the one-handle lifecycle — Open an adaptive, pipelined engine,
// stream edges through it with backpressure, serve bound-carrying queries
// (recorded as the live workload), repartition when the traffic drifts,
// snapshot, and resume from the snapshot.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
)

func main() {
	// A synthetic co-authorship stream stands in for a live feed.
	gen := graphgen.DBLPConfig{Authors: 2000, Papers: 20000, Seed: 1}
	edges, err := gen.Generate()
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "gsketch-engine-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. One Open call composes the whole serving stack: partitioned
	//    estimator (from a stream-prefix sample), striped-lock concurrency,
	//    parallel ingest pipeline, generation-chained adaptive
	//    repartitioning fed by a live workload recorder, and snapshot
	//    persistence.
	cfg := gsketch.Config{TotalBytes: 32 << 10, Seed: 42}
	eng, err := gsketch.Open(cfg,
		gsketch.WithSample(edges[:len(edges)/10]),
		gsketch.WithIngest(gsketch.IngestConfig{}),
		gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 4096}, gsketch.AdaptConfig{}),
		gsketch.WithWorkloadRecorder(2048, 7),
		gsketch.WithSnapshotDir(dir),
		gsketch.WithSnapshotOnClose(),
	)
	if err != nil {
		log.Fatal(err)
	}
	st := eng.Stats()
	fmt.Printf("engine: %d shards, %d bytes of counters\n", st.Partitions, st.MemoryBytes)

	// 2. Ingest: each producer folds its own edges, chunk by chunk, and
	//    the call returns with them applied (read-your-writes); TryIngest
	//    queues without blocking (it sheds with ErrIngestQueueFull).
	if err := eng.Ingest(ctx, edges...); err != nil {
		log.Fatal(err)
	}

	// 3. Query: every served batch is recorded into the workload reservoir
	//    — the drift signal and the §4.2 rebuild sample in one.
	queries := make([]gsketch.EdgeQuery, 0, 256)
	for _, e := range edges[:256] {
		queries = append(queries, gsketch.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	results := eng.QueryBatch(queries)
	fmt.Printf("query:  f(%d→%d) ≈ %d ±%.1f at %.1f%% confidence\n",
		queries[0].Src, queries[0].Dst, results[0].Estimate,
		results[0].ErrorBound, 100*results[0].Confidence)

	resp := eng.Answer(gsketch.SubgraphQuery{Edges: queries[:8], Agg: gsketch.Sum})
	fmt.Printf("answer: SUM over 8 edges ≈ %.0f ±%.0f\n", resp.Value, resp.ErrorBound)

	// 4. The workload drifted? Rebuild the partitioning from the engine's
	//    live samples and hot-swap it in as a new generation — queries keep
	//    covering the whole stream with soundly combined bounds.
	rr, err := eng.Repartition()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("swap:   generation %d live, %d partitions, build %s\n",
		rr.Generations, rr.Partitions, rr.BuildDuration.Round(0))
	if err := eng.Ingest(ctx, edges[:1000]...); err != nil { // keeps absorbing
		log.Fatal(err)
	}

	// 5. Close stops the adaptive loop, drains the pipeline, and persists a
	//    final snapshot (WithSnapshotOnClose). Reopen from it and the
	//    restored engine answers byte-identically.
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
	before := eng.QueryBatch(queries) // read path stays usable after Close

	back, err := gsketch.Open(cfg,
		gsketch.WithRestoreFile(filepath.Join(dir, "gsketch.snap")),
		gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 4096}, gsketch.AdaptConfig{}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer back.Close()
	after := back.QueryBatch(queries)
	for i := range before {
		if before[i].Estimate != after[i].Estimate {
			log.Fatalf("restore mismatch at %d: %d != %d", i, before[i].Estimate, after[i].Estimate)
		}
	}
	fmt.Printf("resume: %d generations restored, %d answers byte-identical\n",
		back.Generations(), len(after))
}
