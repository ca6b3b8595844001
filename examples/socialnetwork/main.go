// Social-network example (the paper's application 1): estimate
// communication frequencies between friends and within communities on a
// co-authorship-style interaction stream, comparing gSketch against the
// Global Sketch baseline at the same memory budget.
package main

import (
	"context"
	"fmt"
	"log"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/stream"
)

func main() {
	cfg := graphgen.DBLPConfig{Authors: 6000, Papers: 60000, Seed: 42}
	edges, err := cfg.Generate()
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth for the demo report (a real deployment cannot afford
	// this; that is the point of sketching).
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	fmt.Printf("stream: %d interactions, %d distinct pairs, %d members\n",
		exact.Total(), exact.DistinctEdges(), exact.DistinctSources())

	const budget = 16 << 10 // deliberately tight: 16 KiB
	sample := reservoirSample(edges, 0.2, 7)

	sketchCfg := gsketch.Config{TotalBytes: budget, Seed: 1}
	g := open(sketchCfg, edges, gsketch.WithSample(sample))
	defer g.Close()
	global := open(sketchCfg, edges, gsketch.WithGlobal())
	defer global.Close()

	// "How often do these two friends interact?" — collect a spread of
	// true frequencies, then answer the whole set with one batched pass
	// per estimator. Each gSketch Result also names its answering
	// partition and the ε·N_i bound that partition guarantees.
	var probes []gsketch.EdgeQuery
	var truths []int64
	lastF := int64(-1)
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if f == lastF || len(probes) >= 8 {
			return len(probes) < 8
		}
		lastF = f
		probes = append(probes, gsketch.EdgeQuery{Src: src, Dst: dst})
		truths = append(truths, f)
		return true
	})
	gRes := g.QueryBatch(probes)
	globalRes := global.QueryBatch(probes)
	fmt.Println("\npair-frequency estimates (16 KiB budget):")
	fmt.Println("true   gSketch  ±bound  GlobalSketch  ±bound")
	for i := range probes {
		fmt.Printf("%5d  %7d  %6.0f  %12d  %6.0f\n",
			truths[i], gRes[i].Estimate, gRes[i].ErrorBound,
			globalRes[i].Estimate, globalRes[i].ErrorBound)
	}

	// "What is the overall communication volume within a community?" —
	// an aggregate subgraph query over one member's neighbourhood.
	var hub uint64
	var best int64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if exact.VertexFrequency(src) > best {
			best = exact.VertexFrequency(src)
			hub = src
		}
		return true
	})
	var community gsketch.SubgraphQuery
	community.Agg = gsketch.Sum
	var truth float64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if src == hub {
			community.Edges = append(community.Edges, gsketch.EdgeQuery{Src: src, Dst: dst})
			truth += float64(f)
		}
		return true
	})
	gAns := g.Answer(community)
	globalAns := global.Answer(community)
	fmt.Printf("\ncommunity of member %d (%d edges): true volume %.0f\n", hub, len(community.Edges), truth)
	fmt.Printf("  gSketch estimate:      %.0f ±%.0f\n", gAns.Value, gAns.ErrorBound)
	fmt.Printf("  GlobalSketch estimate: %.0f ±%.0f\n", globalAns.Value, globalAns.ErrorBound)
}

func reservoirSample(edges []gsketch.Edge, frac float64, seed uint64) []gsketch.Edge {
	res := gsketch.NewReservoir(int(float64(len(edges))*frac), seed)
	for _, e := range edges {
		res.Observe(e)
	}
	out := make([]gsketch.Edge, len(res.Sample()))
	copy(out, res.Sample())
	return out
}

// open builds an engine over one bootstrap option and streams edges in.
func open(cfg gsketch.Config, edges []gsketch.Edge, bootstrap gsketch.Option) *gsketch.Engine {
	eng, err := gsketch.Open(cfg, bootstrap)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		log.Fatal(err)
	}
	return eng
}
