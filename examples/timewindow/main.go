// Time-window example (§5 of the paper): summarize a stream in fixed time
// windows, each with its own partitioned sketch built from the previous
// window's reservoir sample, and answer interval queries by extrapolation.
package main

import (
	"fmt"
	"log"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
)

func main() {
	// Five "days" of attack traffic; the attacker population drifts over
	// time, which is what per-window partitioning absorbs.
	cfg := graphgen.DefaultIPAttack(1500, 8000, 200000, 4)
	edges, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	store, err := gsketch.NewWindowStore(gsketch.WindowConfig{
		Span:       1, // one window per generated "day"
		SampleSize: 5000,
		Sketch:     gsketch.Config{TotalBytes: 64 << 10, Seed: 11},
		Seed:       12,
	})
	if err != nil {
		log.Fatal(err)
	}
	// ObserveBatch hands each contiguous same-window run to the window
	// estimator in one batched update (per-edge Observe remains available).
	if err := store.ObserveBatch(edges); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("stored %d windows:\n", len(store.Windows()))
	for _, w := range store.Windows() {
		kind := "global (bootstrap)"
		if w.Estimator.NumPartitions() > 0 {
			kind = "partitioned gSketch"
		}
		fmt.Printf("  day %d: %7d arrivals, %s\n", w.Index, w.Arrivals, kind)
	}

	// Pick the heaviest pair of day 0 and track it across windows.
	counts := map[[2]uint64]int64{}
	var top [2]uint64
	for _, e := range edges {
		if e.Time != 0 {
			break
		}
		k := [2]uint64{e.Src, e.Dst}
		counts[k]++
		if counts[k] > counts[top] {
			top = k
		}
	}
	src, dst := top[0], top[1]
	fmt.Printf("\nattack pair (%d -> %d):\n", src, dst)
	// One batched pass per range: each overlapping window's sketch is
	// touched once for the whole query set.
	q := []gsketch.EdgeQuery{{Src: src, Dst: dst}}
	for day := int64(0); day < 5; day++ {
		fmt.Printf("  day %d estimate: %8.0f\n", day, gsketch.EstimateWindowBatch(store, q, day, day)[0])
	}
	fmt.Printf("  days 1-3:       %8.0f\n", gsketch.EstimateWindowBatch(store, q, 1, 3)[0])
	fmt.Printf("  lifetime:       %8.0f\n", store.EstimateEdgeAll(src, dst))
	fmt.Printf("total sketch memory across windows: %d bytes\n", store.MemoryBytes())
}
