// Command gsketch-stats prints the §6.1 dataset statistics for an edge
// file — stream volume, distinct edges, sources, and the variance ratio
// σ_G/σ_V that quantifies the local-similarity property gSketch exploits —
// or inspects a sketch snapshot.
//
// Usage:
//
//	gsketch-stats -stream FILE
//	gsketch-stats -snapshot FILE
//
// -snapshot accepts any snapshot the engine writes: a single sketch, or a
// generation-chain container (version 2, 3 or 4). For a chain it prints one
// line per generation — stream volume, counter bytes, partition count, the
// localized sketches' width range (min/median/max columns) and the outlier
// sketch's width, how many source generations compaction folded into it,
// the window index of a windowed engine's generation, and the build
// timestamp (version-4 snapshots carry these lifecycle records; older
// versions print blanks).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	streamPath := flag.String("stream", "", "edge file to analyze")
	snapshotPath := flag.String("snapshot", "", "sketch or chain snapshot to inspect")
	flag.Parse()
	if (*streamPath == "") == (*snapshotPath == "") {
		fmt.Fprintln(os.Stderr, "gsketch-stats: need exactly one of -stream or -snapshot (see -h)")
		os.Exit(2)
	}
	if *snapshotPath != "" {
		snapshotStats(*snapshotPath)
		return
	}

	edges, err := stream.ReadEdgeFile(*streamPath, 0)
	if err != nil {
		fatal("read: %v", err)
	}

	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	st := stream.ComputeVarianceStats(exact)

	fmt.Printf("arrivals:        %d\n", exact.Arrivals())
	fmt.Printf("stream volume:   %d\n", exact.Total())
	fmt.Printf("distinct edges:  %d\n", st.DistinctEdges)
	fmt.Printf("source vertices: %d\n", st.Sources)
	multiplicity := 0.0 // an empty stream has no distinct edges to divide by
	if st.DistinctEdges > 0 {
		multiplicity = float64(exact.Total()) / float64(st.DistinctEdges)
	}
	fmt.Printf("multiplicity:    %.2f\n", multiplicity)
	fmt.Printf("sigma_G:         %.4f\n", st.GlobalVariance)
	fmt.Printf("sigma_V:         %.4f\n", st.LocalVariance)
	fmt.Printf("variance ratio:  %.3f\n", st.Ratio)
}

// snapshotStats prints the per-generation breakdown of a snapshot file.
func snapshotStats(path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal("open: %v", err)
	}
	defer f.Close()
	gens, metas, err := core.ReadChainMeta(f)
	if err != nil {
		fatal("read snapshot: %v", err)
	}

	var total, bytes int64
	var folded int
	for i, g := range gens {
		total = sketch.AddVolume(total, g.Count())
		bytes += int64(g.MemoryBytes())
		folded += metas[i].CompactedFrom
	}
	fmt.Printf("generations:     %d\n", len(gens))
	fmt.Printf("compacted from:  %d\n", folded)
	fmt.Printf("stream volume:   %d\n", total)
	fmt.Printf("counter bytes:   %d\n", bytes)
	fmt.Println()
	fmt.Printf("%-4s %14s %14s %11s %20s %8s %8s %8s %s\n",
		"gen", "stream", "bytes", "partitions", "widths min/med/max", "outlier", "folded", "window", "built")
	for i, g := range gens {
		built := "-"
		if metas[i].BuiltAt != 0 {
			built = time.Unix(metas[i].BuiltAt, 0).UTC().Format(time.RFC3339)
		}
		window := "-"
		if k, ok := metas[i].WindowIndex(); ok {
			window = fmt.Sprint(k)
		}
		role := ""
		if i == len(gens)-1 {
			role = "  (head)"
		}
		fmt.Printf("%-4d %14d %14d %11d %20s %8d %8d %8s %s%s\n",
			i, g.Count(), g.MemoryBytes(), g.NumPartitions(), widthRange(g.Leaves()),
			g.OutlierWidth(), metas[i].CompactedFrom, window, built, role)
	}
}

// widthRange formats the smallest, median and largest leaf width, or "-"
// for a leafless generation (the Global Sketch).
func widthRange(leaves []core.Leaf) string {
	if len(leaves) == 0 {
		return "-"
	}
	w := make([]int, len(leaves))
	for i, l := range leaves {
		w[i] = l.Width
	}
	slices.Sort(w)
	return fmt.Sprintf("%d/%d/%d", w[0], w[len(w)/2], w[len(w)-1])
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsketch-stats: "+format+"\n", args...)
	os.Exit(1)
}
