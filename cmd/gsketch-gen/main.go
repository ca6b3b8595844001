// Command gsketch-gen generates the synthetic graph-stream datasets used
// by the reproduction (DBLP-like co-authorship, IP-attack network, R-MAT)
// and writes them as text or binary edge files.
//
// Usage:
//
//	gsketch-gen -dataset dblp|ipattack|rmat [-out FILE] [-format text|binary]
//	            [-scale small|repro] [-seed N]
//
// Examples:
//
//	gsketch-gen -dataset rmat -scale small -out rmat.bin -format binary
//	gsketch-gen -dataset dblp -out - | head
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/graphstream/gsketch/internal/experiments"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	var (
		dataset = flag.String("dataset", "rmat", "dataset: dblp, ipattack or rmat")
		out     = flag.String("out", "-", "output file ('-' = stdout)")
		format  = flag.String("format", "text", "output format: text or binary")
		scale   = flag.String("scale", "small", "scale profile: small or repro")
		seed    = flag.Uint64("seed", 20111130, "generator seed")
	)
	flag.Parse()

	// Every flag value is checked before the dataset is generated or the
	// output file is created.
	var profile experiments.Profile
	switch *scale {
	case "small":
		profile = experiments.Small
	case "repro":
		profile = experiments.Repro
	default:
		usage("unknown scale %q (want small or repro)", *scale)
	}
	var write func(io.Writer, []stream.Edge) error
	switch *format {
	case "text":
		write = stream.WriteTextEdges
	case "binary":
		write = stream.WriteBinaryEdges
	default:
		usage("unknown format %q (want text or binary)", *format)
	}

	var edges []stream.Edge
	var err error
	switch *dataset {
	case "dblp":
		cfg := graphgen.DBLPConfig{Authors: profile.DBLPAuthors, Papers: profile.DBLPPairs / 3, Seed: *seed}
		edges, err = cfg.Generate()
	case "ipattack":
		cfg := graphgen.DefaultIPAttack(profile.IPAttackers, profile.IPTargets, profile.IPPackets, *seed)
		edges, err = cfg.Generate()
	case "rmat":
		cfg := graphgen.DefaultRMAT(profile.RMATScale, profile.RMATEdges, *seed)
		edges, err = cfg.Generate()
	default:
		usage("unknown dataset %q (want dblp, ipattack or rmat)", *dataset)
	}
	if err != nil {
		fatal("generate: %v", err)
	}

	if *out == "-" {
		err = write(os.Stdout, edges)
	} else {
		err = writeFile(*out, write, edges)
	}
	if err != nil {
		fatal("write: %v", err)
	}
	fmt.Fprintf(os.Stderr, "gsketch-gen: wrote %d edges (%s, %s scale)\n", len(edges), *dataset, *scale)
}

// writeFile writes edges to path and reports a failed close, which is where
// a buffered write to a full disk shows.
func writeFile(path string, write func(io.Writer, []stream.Edge) error, edges []stream.Edge) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, edges); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// usage reports a bad flag value or combination and exits 2, as the flag
// package does for a flag it cannot parse.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsketch-gen: "+format+" (see -h)\n", args...)
	os.Exit(2)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gsketch-gen: "+format+"\n", args...)
	os.Exit(1)
}
