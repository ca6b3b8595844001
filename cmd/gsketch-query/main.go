// Command gsketch-query builds a gSketch (or Global Sketch) over an edge
// file and answers edge queries from a query file or the command line. All
// queries — from -edge and -queries combined — are answered in one batched
// EstimateBatch pass; -bounds additionally prints each answer's error
// bound, confidence and answering partition.
//
// Usage:
//
//	gsketch-query -stream FILE [-queries FILE] [-edge "src dst"] [-bounds]
//	              [-memory BYTES] [-sample FRAC] [-global] [-save FILE]
//	              [-load FILE]
//
// The stream file may be text ("src dst [weight [time]]") or the binary
// format produced by gsketch-gen -format binary (told apart by the file's
// first four bytes).
//
// Output is one line per query: "src dst estimate", extended by -bounds to
// "src dst estimate ±bound confidence partition" where partition is a
// localized-sketch index, "outlier" or "global".
//
// Examples:
//
//	gsketch-gen -dataset rmat -out rmat.txt
//	gsketch-query -stream rmat.txt -edge "5 17" -memory 262144
//	gsketch-query -stream rmat.txt -queries q.txt -bounds -save sketch.gsk
//	gsketch-query -load sketch.gsk -edge "5 17"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	var (
		streamPath  = flag.String("stream", "", "edge file to summarize")
		queriesPath = flag.String("queries", "", "file of 'src dst' queries (text)")
		edge        = flag.String("edge", "", "single query: 'src dst'")
		bounds      = flag.Bool("bounds", false, "print error bound, confidence and answering partition per query")
		memory      = flag.Int("memory", 1<<20, "sketch memory budget in bytes")
		sampleFrac  = flag.Float64("sample", 0.1, "data-sample fraction for partitioning")
		global      = flag.Bool("global", false, "use the Global Sketch baseline instead of gSketch")
		save        = flag.String("save", "", "save the populated gSketch to this file")
		load        = flag.String("load", "", "load a previously saved gSketch instead of building")
		seed        = flag.Uint64("seed", 42, "hash seed")
	)
	flag.Parse()

	// Flag combinations are checked before any file is read or written, so
	// none is silently ignored.
	switch {
	case *load == "" && *streamPath == "":
		usage("need -stream or -load")
	case *load != "" && (*streamPath != "" || *global || *save != ""):
		usage("-load restores a saved gSketch; it takes none of -stream, -global or -save")
	}

	// Everything constructs through the one-handle engine: the bootstrap
	// source (snapshot, partitioned build or global baseline) is an Open
	// option, and ingest/query/save all go through the same handle.
	cfg := gsketch.Config{TotalBytes: *memory, Seed: *seed}
	var eng *gsketch.Engine
	var edges []gsketch.Edge
	if *load != "" {
		var err error
		eng, err = gsketch.Open(cfg, gsketch.WithRestoreFile(*load))
		if err != nil {
			fatal("load: %v", err)
		}
	} else {
		edges = readEdges(*streamPath)
		var err error
		if *global {
			eng, err = gsketch.Open(cfg, gsketch.WithGlobal())
		} else {
			n := int(float64(len(edges)) * *sampleFrac)
			if n < 1 {
				n = 1
			}
			res := gsketch.NewReservoir(n, *seed+1)
			for _, e := range edges {
				res.Observe(e)
			}
			eng, err = gsketch.Open(cfg, gsketch.WithSample(res.Sample()))
		}
		if err != nil {
			fatal("build: %v", err)
		}
		if err := eng.Ingest(context.Background(), edges...); err != nil {
			fatal("ingest: %v", err)
		}
		if !*global {
			st := eng.Stats()
			fmt.Fprintf(os.Stderr, "gsketch-query: %d shards, %d bytes\n",
				st.Partitions, st.MemoryBytes)
		}
		if *save != "" {
			if _, err := eng.SaveSnapshot(*save); err != nil {
				fatal("save: %v", err)
			}
		}
	}
	defer eng.Close()

	// Collect every query — command-line edge plus the -queries file — and
	// answer them all with one batched, bound-carrying pass.
	var queries []gsketch.EdgeQuery
	if *edge != "" {
		src, dst := parsePair(*edge)
		queries = append(queries, gsketch.EdgeQuery{Src: src, Dst: dst})
	}
	if *queriesPath != "" {
		data, err := os.ReadFile(*queriesPath)
		if err != nil {
			fatal("queries: %v", err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			src, dst := parsePair(line)
			queries = append(queries, gsketch.EdgeQuery{Src: src, Dst: dst})
		}
	}
	if len(queries) == 0 {
		return
	}
	results := eng.QueryBatch(queries)
	leafless := eng.Sketch().NumPartitions() == 0 // the Global Sketch, built or loaded
	for i, q := range queries {
		r := results[i]
		if !*bounds {
			fmt.Printf("%d %d %d\n", q.Src, q.Dst, r.Estimate)
			continue
		}
		part := fmt.Sprintf("p%d", r.Partition)
		switch {
		case leafless:
			part = "global"
		case r.Outlier:
			part = "outlier"
		}
		fmt.Printf("%d %d %d ±%.1f %.4f %s\n", q.Src, q.Dst, r.Estimate, r.ErrorBound, r.Confidence, part)
	}
}

func readEdges(path string) []gsketch.Edge {
	edges, err := stream.ReadEdgeFile(path, 0)
	if err != nil {
		fatal("read: %v", err)
	}
	return edges
}

func parsePair(s string) (uint64, uint64) {
	var src, dst uint64
	if _, err := fmt.Sscanf(s, "%d %d", &src, &dst); err != nil {
		fatal("bad query %q: want 'src dst'", s)
	}
	return src, dst
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsketch-query: "+format+"\n", args...)
	os.Exit(1)
}

// usage reports a bad flag combination and exits 2, as the flag package
// does for a flag it cannot parse.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsketch-query: "+format+" (see -h)\n", args...)
	os.Exit(2)
}
