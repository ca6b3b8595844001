// Time-window example (§5 of the paper): an Engine whose generations are
// fixed time windows, each partitioned from a reservoir sample of the
// window before it, answering interval queries by extrapolation.
package main

import (
	"context"
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

	// Day 0 has no earlier window to sample, so it is the Global Sketch;
	// every later day is partitioned from the day before it.
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 64 << 10, Seed: 11},
		gsketch.WithGlobal(),
		gsketch.WithWindows(gsketch.WindowConfig{
			Span:       1, // one window per generated "day"
			SampleSize: 5000,
		}))
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored %d windows, %d arrivals\n", eng.Generations(), eng.Stats().StreamTotal)

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
	window := func(t1, t2 int64) float64 {
		v, err := eng.QueryWindow(q, t1, t2)
		if err != nil {
			log.Fatal(err)
		}
		return v[0]
	}
	for day := int64(0); day < 5; day++ {
		fmt.Printf("  day %d estimate: %8.0f\n", day, window(day, day))
	}
	fmt.Printf("  days 1-3:       %8.0f\n", window(1, 3))
	fmt.Printf("  lifetime:       %8d\n", eng.Query(src, dst).Estimate)
	fmt.Printf("total sketch memory across windows: %d bytes\n", eng.Stats().MemoryBytes)
}
