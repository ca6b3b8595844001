package gsketch_test

// One benchmark per reproduced paper artifact (the experiment ids of
// internal/experiments: fig4 … fig14, table1, varratio). Each bench runs
// the corresponding experiment on the Small profile and reports the
// headline metrics (average relative error for both methods, effective
// queries) via b.ReportMetric, so `go test -bench=.` regenerates every
// table and figure series in miniature. cmd/gsketch-bench runs the full
// repro profile.
//
// Micro-benchmarks for the hot paths (update/estimate on both estimators
// and the partitioning step itself) follow the figure benches.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/experiments"
	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

var (
	benchOnce    sync.Once
	benchHarness *experiments.Harness
)

func harness() *experiments.Harness {
	benchOnce.Do(func() {
		benchHarness = experiments.NewHarness(experiments.NewRegistry(experiments.Small))
	})
	return benchHarness
}

// runExperiment executes one registered experiment per benchmark
// iteration; dataset generation is cached in the harness so the first
// iteration pays it and later ones measure the experiment itself.
func runExperiment(b *testing.B, id string) {
	e, ok := experiments.FindExperiment(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	h := harness()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(h); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVarianceRatio(b *testing.B) { runExperiment(b, "varratio") }
func BenchmarkFig4(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)          { runExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)          { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)         { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)         { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)         { runExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)         { runExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)         { runExperiment(b, "fig14") }
func BenchmarkTable1(b *testing.B)        { runExperiment(b, "table1") }

// BenchmarkFig4HeadlineMetrics runs one memory point of the Figure-4
// experiment and reports the accuracy numbers as benchmark metrics so the
// who-wins shape is visible straight from `go test -bench`.
func BenchmarkFig4HeadlineMetrics(b *testing.B) {
	reg := harness().Reg
	ds, err := reg.RMAT()
	if err != nil {
		b.Fatal(err)
	}
	var last []experiments.SweepPoint
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunEdgeSweep(ds, experiments.EdgeSweepOptions{
			MemoryGrid: []int{ds.FixedMemory},
		})
		if err != nil {
			b.Fatal(err)
		}
		last = pts
	}
	if len(last) > 0 {
		b.ReportMetric(last[0].Global.AvgRelErr, "global-ARE")
		b.ReportMetric(last[0].GSketch.AvgRelErr, "gsketch-ARE")
		b.ReportMetric(float64(last[0].Global.Effective), "global-effective")
		b.ReportMetric(float64(last[0].GSketch.Effective), "gsketch-effective")
		b.ReportMetric(float64(last[0].Partitions), "partitions")
	}
}

// --- Micro-benchmarks: hot paths -----------------------------------------

func benchStream(n int) []stream.Edge {
	cfg := experiments.Small
	_ = cfg
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{Src: uint64(i % 4096), Dst: uint64(i % 65536), Weight: 1}
	}
	return edges
}

func BenchmarkGlobalSketchUpdate(b *testing.B) {
	g, err := core.BuildGlobalSketch(core.Config{TotalBytes: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	edges := benchStream(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(edges[i&(1<<16-1)])
	}
}

func BenchmarkGSketchUpdate(b *testing.B) {
	edges := benchStream(1 << 16)
	g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: 1}, edges[:8192], nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(edges[i&(1<<16-1)])
	}
}

func BenchmarkGlobalSketchEstimate(b *testing.B) {
	g, err := core.BuildGlobalSketch(core.Config{TotalBytes: 1 << 20, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	edges := benchStream(1 << 16)
	core.Populate(g, edges)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		e := edges[i&(1<<16-1)]
		sink += g.EstimateEdge(e.Src, e.Dst)
	}
	_ = sink
}

func BenchmarkGSketchEstimate(b *testing.B) {
	edges := benchStream(1 << 16)
	g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: 1}, edges[:8192], nil)
	if err != nil {
		b.Fatal(err)
	}
	core.Populate(g, edges)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		e := edges[i&(1<<16-1)]
		sink += g.EstimateEdge(e.Src, e.Dst)
	}
	_ = sink
}

func BenchmarkPartitioning(b *testing.B) {
	edges := benchStream(1 << 15)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: uint64(i)}, edges[:8192], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBootstrap measures what a boot, a tenant create or a repartition
// pays before the first edge: edge file → ready Engine, through a sample
// read into memory ("open") and through the file source ("file"), and the
// stages under the former one at a time. The sizes are the ones the repository's
// benchmark boots with: the 8 192-edge rebuild of an adaptive engine, the
// 65 536-edge default -sample-cap, and wire_bulk_large's 4 Mi-edge sample
// (scale-22 R-MAT, 16 MiB of counters, about 16 k partitions). The R-MAT
// samples repeat the edge before in most arrivals; "runfree" is
// wire_mixed_paced's sample, 64 Ki edges of the zipf carousel (4 096
// sources, 256 destinations each, 4 MiB of counters), where almost none
// does, so the statistics passes there fold nothing.
func BenchmarkBootstrap(b *testing.B) {
	rmat := func(scale, edges int) func() ([]stream.Edge, error) {
		return graphgen.DefaultRMAT(scale, edges, 7).Generate
	}
	for _, c := range []struct {
		name   string
		edges  int
		sample func() ([]stream.Edge, error)
		bytes  int
	}{
		{"8Ki", 8192, rmat(14, 8192), 1 << 20},
		{"64Ki", 1 << 16, rmat(14, 1<<16), 1 << 20},
		{"4Mi", 4 << 20, rmat(22, 4<<20), 16 << 20},
		{"runfree", 1 << 16, func() ([]stream.Edge, error) {
			// Phase 0 of the carousel is the same for any phase count.
			return graphgen.ZipfCarouselStream(graphgen.CarouselConfig{
				Vertices: 4096, Destinations: 256, Phases: 2, EdgesPerPhase: 1 << 16, Alpha: 1.1, Seed: 7,
			})
		}, 4 << 20},
	} {
		b.Run(c.name, func(b *testing.B) {
			sample, err := c.sample()
			if err != nil {
				b.Fatal(err)
			}
			sample = sample[:c.edges]
			path := filepath.Join(b.TempDir(), "sample.bin")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			if err := stream.WriteBinaryEdges(f, sample); err != nil {
				b.Fatal(err)
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			cfg := core.Config{TotalBytes: c.bytes, Seed: 1}
			stats := vstats.FromSample(sample)
			// The width a default Config leaves the partitions: all of it
			// but the outlier sketch's tenth.
			width := c.bytes / (core.DefaultDepth * sketch.CellSize)
			params := core.PartitionParams{
				Width: width - width/10, MinWidth: core.DefaultMinWidth,
				CollisionC: core.DefaultCollisionC, Order: vstats.ByAvgFreq,
			}
			part, err := core.BuildPartitioning(stats, params)
			if err != nil {
				b.Fatal(err)
			}
			stage := func(name string, fn func()) {
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			}
			stage("open", func() {
				edges, err := stream.ReadEdgeFile(path, c.edges)
				if err != nil {
					b.Fatal(err)
				}
				eng, err := gsketch.Open(cfg, gsketch.WithSample(edges), gsketch.WithIngest(gsketch.IngestConfig{}))
				if err != nil {
					b.Fatal(err)
				}
				eng.Close()
			})
			// The same engine from the file source, which reads the file
			// twice and never holds the sample: compare its B/op with open's.
			stage("file", func() {
				eng, err := gsketch.Open(cfg, gsketch.WithSampleFile(path, c.edges), gsketch.WithIngest(gsketch.IngestConfig{}))
				if err != nil {
					b.Fatal(err)
				}
				eng.Close()
			})
			stage("read", func() {
				if _, err := stream.ReadEdgeFile(path, c.edges); err != nil {
					b.Fatal(err)
				}
			})
			stage("from_sample", func() { vstats.FromSample(sample) })
			stage("sorted", func() { stats.Sorted(vstats.ByAvgFreq) })
			stage("tree", func() { // includes the sort
				if _, err := core.BuildPartitioning(stats, params); err != nil {
					b.Fatal(err)
				}
			})
			stage("router", func() { // the fill core does from the tree's assignment
				r := core.NewRouter(len(part.Vertices))
				for i, v := range part.Vertices {
					r.Insert(v, part.LeafOf[i])
				}
			})
		})
	}
}

func BenchmarkCountMinUpdate(b *testing.B) {
	cm, err := sketch.NewCountMin(1<<16, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Update(uint64(i), 1)
	}
}

func BenchmarkCountMinEstimate(b *testing.B) {
	cm, err := sketch.NewCountMin(1<<16, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<20; i++ {
		cm.Update(uint64(i%65536), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += cm.Estimate(uint64(i % 65536))
	}
	_ = sink
}

// --- Ingest-pipeline benches ----------------------------------------------

// ingestBenchEdges is the 1M-edge synthetic stream the ingest benches run
// over (skewed sources, mixed arrival order).
func ingestBenchEdges() []stream.Edge {
	edges := make([]stream.Edge, 1<<20)
	for i := range edges {
		v := uint64(i)*0x9e3779b97f4a7c15 + 0x7f4a7c15
		edges[i] = stream.Edge{Src: (v >> 16) % 16384, Dst: v % 65536, Weight: 1}
	}
	return edges
}

func ingestBenchSketch(b *testing.B, edges []stream.Edge) *core.GSketch {
	g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: 42}, edges[:1<<15], nil)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// seedSketch replicates the seed's per-edge ingest structure: a
// map[uint64]int32 vertex router in front of separately allocated
// per-partition CountMin sketches, one map probe per edge. Wrapped in
// NewConcurrent it takes the generic single-RWMutex path (it is not a
// *GSketch), so the pair reproduces the pre-refactor Concurrent.Update hot
// path that the acceptance speedup is measured against.
type seedSketch struct {
	router       map[uint64]int32
	parts        []*sketch.CountMin
	widths       []int
	outlier      *sketch.CountMin
	outlierWidth int
	total        int64
}

// newSeedSketch rebuilds the seed structure from a built gSketch: same
// partition layout and widths, same routed vertex set (recovered through
// PartitionOf over the source universe).
func newSeedSketch(b *testing.B, g *core.GSketch, sources int) *seedSketch {
	s := &seedSketch{router: make(map[uint64]int32)}
	for _, leaf := range g.Leaves() {
		cm, err := sketch.NewCountMin(leaf.Width, g.Depth(), 1)
		if err != nil {
			b.Fatal(err)
		}
		s.parts = append(s.parts, cm)
		s.widths = append(s.widths, leaf.Width)
	}
	out, err := sketch.NewCountMin(g.OutlierWidth(), g.Depth(), 2)
	if err != nil {
		b.Fatal(err)
	}
	s.outlier = out
	s.outlierWidth = g.OutlierWidth()
	for src := 0; src < sources; src++ {
		if i, ok := g.PartitionOf(uint64(src)); ok {
			s.router[uint64(src)] = int32(i)
		}
	}
	return s
}

func (s *seedSketch) Update(e stream.Edge) {
	w := e.Weight
	if w == 0 {
		w = 1
	}
	s.total += w
	syn := s.outlier
	if i, ok := s.router[e.Src]; ok {
		syn = s.parts[i]
	}
	syn.Update(stream.EdgeKey(e.Src, e.Dst), w)
}

func (s *seedSketch) UpdateBatch(edges []stream.Edge) {
	for _, e := range edges {
		s.Update(e)
	}
}

func (s *seedSketch) EstimateEdge(src, dst uint64) int64 {
	syn := s.outlier
	if i, ok := s.router[src]; ok {
		syn = s.parts[i]
	}
	return syn.Estimate(stream.EdgeKey(src, dst))
}

// EstimateBatch answers per edge with no provenance, mirroring the seed's
// read path (one lookup per query, bare numbers).
func (s *seedSketch) EstimateBatch(qs []core.EdgeQuery) []core.Result {
	out := make([]core.Result, len(qs))
	for i, q := range qs {
		out[i] = core.Result{
			Estimate:    s.EstimateEdge(q.Src, q.Dst),
			Partition:   core.NoPartition,
			StreamTotal: s.total,
		}
	}
	return out
}

// ErrorBound replicates the seed-era per-query bound fetch (mirroring
// GSketch.ErrorBound): route through the map, read the answering sketch's
// local volume, divide by its width.
func (s *seedSketch) ErrorBound(src uint64) float64 {
	syn := s.outlier
	width := s.outlierWidth
	if i, ok := s.router[src]; ok {
		syn = s.parts[i]
		width = s.widths[i]
	}
	if width <= 0 {
		return 0
	}
	return math.E * float64(syn.Count()) / float64(width)
}

func (s *seedSketch) Count() int64     { return s.total }
func (s *seedSketch) MemoryBytes() int { return 0 }

// ingestBenchBatch is the batch size of the batched ingest benches.
const ingestBenchBatch = 8192

// runIngestWorkers splits b.N edges across 4 goroutines, each claiming
// ingestBenchBatch-sized ranges of the 1M-edge ring and applying them with
// apply. Wall-clock covers all workers, so ns/op is true per-edge cost
// under write concurrency.
func runIngestWorkers(b *testing.B, edges []stream.Edge, apply func(chunk []stream.Edge)) {
	const workers = 4
	var cursor atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := cursor.Add(ingestBenchBatch) - ingestBenchBatch
				if lo >= int64(b.N) {
					return
				}
				n := int64(ingestBenchBatch)
				if lo+n > int64(b.N) {
					n = int64(b.N) - lo
				}
				off := int(lo) % (1<<20 - ingestBenchBatch)
				apply(edges[off : off+int(n)])
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// BenchmarkConcurrentUpdatePerEdge is the seed ingest path under write
// concurrency: 4 goroutines pushing one edge at a time through a single
// global lock.
func BenchmarkConcurrentUpdatePerEdge(b *testing.B) {
	edges := ingestBenchEdges()
	c := core.NewConcurrent(newSeedSketch(b, ingestBenchSketch(b, edges), 16384))
	runIngestWorkers(b, edges, func(chunk []stream.Edge) {
		for _, e := range chunk {
			c.Update(e)
		}
	})
}

// BenchmarkUpdateBatch is the refactored path under the same concurrency:
// 4 goroutines pushing batches through the partition-sharded Concurrent.
// The acceptance bar for the ingest refactor is ≥2× the edges/sec of
// BenchmarkConcurrentUpdatePerEdge.
func BenchmarkUpdateBatch(b *testing.B) {
	edges := ingestBenchEdges()
	c := core.NewConcurrent(ingestBenchSketch(b, edges))
	runIngestWorkers(b, edges, func(chunk []stream.Edge) {
		c.UpdateBatch(chunk)
	})
}

// BenchmarkIngestorPipeline drives the full Push→channel→worker pipeline.
func BenchmarkIngestorPipeline(b *testing.B) {
	edges := ingestBenchEdges()
	c := core.NewConcurrent(ingestBenchSketch(b, edges))
	ing, err := ingest.New(c, ingest.Config{Workers: 4, BatchSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for lo := 0; lo < b.N; lo += 1 << 16 {
		hi := lo + 1<<16
		if hi > b.N {
			hi = b.N
		}
		for n := hi - lo; n > 0; {
			chunk := n
			if chunk > 1<<20 {
				chunk = 1 << 20
			}
			if err := ing.PushBatch(edges[:chunk]); err != nil {
				b.Fatal(err)
			}
			n -= chunk
		}
	}
	if err := ing.Close(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "edges/sec")
}

// --- Query-path benches ---------------------------------------------------

// queryBenchSetup builds a populated 16-partition sharded sketch (the
// acceptance configuration of the batched read path) plus a query ring
// mixing routed and outlier sources.
func queryBenchSetup(b *testing.B) (*core.Concurrent, []core.EdgeQuery) {
	edges := ingestBenchEdges()
	g, err := core.BuildGSketch(core.Config{
		TotalBytes: 1 << 20, Seed: 42, MaxPartitions: 16,
	}, edges[:1<<15], nil)
	if err != nil {
		b.Fatal(err)
	}
	if g.NumPartitions() != 16 {
		b.Fatalf("bench sketch has %d partitions, want 16", g.NumPartitions())
	}
	c := core.NewConcurrent(g)
	core.Populate(c, edges)
	qs := make([]core.EdgeQuery, 1<<16)
	for i := range qs {
		e := edges[(i*37)&(1<<20-1)]
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return c, qs
}

// queryBenchBatch is the batch size of the batched query benches.
const queryBenchBatch = 8192

// runQueryWorkers splits b.N queries across 4 reader goroutines, each
// claiming queryBenchBatch-sized ranges of the query ring — the read-side
// mirror of runIngestWorkers, so per-edge and batched readers face the same
// concurrent-serving load the Concurrent wrapper exists for.
func runQueryWorkers(b *testing.B, qs []core.EdgeQuery, apply func(chunk []core.EdgeQuery)) {
	const workers = 4
	var cursor atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := cursor.Add(queryBenchBatch) - queryBenchBatch
				if lo >= int64(b.N) {
					return
				}
				n := int64(queryBenchBatch)
				if lo+n > int64(b.N) {
					n = int64(b.N) - lo
				}
				off := int(lo) % (len(qs) - queryBenchBatch)
				apply(qs[off : off+int(n)])
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkEstimateEdgePerQuery is the pre-redesign read path, mirroring
// how BenchmarkConcurrentUpdatePerEdge frames the write side: the seed-era
// structure (map vertex router, generic single-RWMutex Concurrent), one
// EstimateEdge call plus one ErrorBound fetch per query — producing per
// query the answer-plus-guarantee that one batched Result carries — under
// concurrent readers.
func BenchmarkEstimateEdgePerQuery(b *testing.B) {
	edges := ingestBenchEdges()
	g, err := core.BuildGSketch(core.Config{
		TotalBytes: 1 << 20, Seed: 42, MaxPartitions: 16,
	}, edges[:1<<15], nil)
	if err != nil {
		b.Fatal(err)
	}
	seed := newSeedSketch(b, g, 16384)
	for _, e := range edges {
		seed.Update(e)
	}
	c := core.NewConcurrent(seed)
	qs := make([]core.EdgeQuery, 1<<16)
	for i := range qs {
		e := edges[(i*37)&(1<<20-1)]
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	runQueryWorkers(b, qs, func(chunk []core.EdgeQuery) {
		var sink int64
		var bounds float64
		for _, q := range chunk {
			sink += c.EstimateEdge(q.Src, q.Dst)
			bounds += seed.ErrorBound(q.Src)
		}
		_, _ = sink, bounds
	})
}

// BenchmarkEstimateEdgeSharded is the intermediate point: the modern
// sharded Concurrent answering bound-carrying queries one edge at a time
// (flat router, striped read locks, but still one lock round-trip and two
// routed probes per query).
func BenchmarkEstimateEdgeSharded(b *testing.B) {
	c, qs := queryBenchSetup(b)
	g := c.Unwrap().(*core.GSketch)
	runQueryWorkers(b, qs, func(chunk []core.EdgeQuery) {
		var sink int64
		var bounds float64
		for _, q := range chunk {
			sink += c.EstimateEdge(q.Src, q.Dst)
			bounds += g.ErrorBound(q.Src)
		}
		_, _ = sink, bounds
	})
}

// BenchmarkEstimateBatch is the redesigned read path under the same
// concurrency: route-then-gather batches of bound-carrying Results with
// one stripe-lock acquisition per touched stripe per chunk. The acceptance
// bar is ≥1.5× the queries/sec of BenchmarkEstimateEdgePerQuery on this
// 16-partition sketch.
func BenchmarkEstimateBatch(b *testing.B) {
	c, qs := queryBenchSetup(b)
	runQueryWorkers(b, qs, func(chunk []core.EdgeQuery) {
		var sink int64
		for _, r := range c.EstimateBatch(chunk) {
			sink += r.Estimate
		}
		_ = sink
	})
}

// BenchmarkBatchByPartitions is the scaling guard of the routed-batch
// grouping: the cost of one Concurrent.UpdateBatch / EstimateBatch call must
// follow the batch, not the partition count. It sweeps a 16 MiB sketch over
// an R-MAT sample (the wire_bulk_large configuration of the repository's
// benchmark) capped at 16, 1 k and 16 k partitions, against batches of 1,
// 256, 1024 and 8192, and reports ns/edge and ns/query. At 16 k partitions a
// one-element batch must stay under 2 µs and ns/edge at 256-edge batches
// within 1.5× of 8192-edge batches.
//
// Batches are consecutive slices of the stream, which helps twice. R-MAT
// streams have locality: a 2048-query slice touches a few hundred
// partitions with several keys each. And the generator emits bursts — the
// same interaction recurs back to back — so most arrivals of a slice repeat
// the edge before them and fold into that edge's run, one routed position
// per run (runs/edge reports the share; the update cells' ns/edge falls
// with it, the estimate cells' does not, as queries are never folded).
// BenchmarkBatchByPartitionsRandom is the variant without either help.
func BenchmarkBatchByPartitions(b *testing.B) {
	edges, err := graphgen.DefaultRMAT(22, 1<<22, 42).Generate()
	if err != nil {
		b.Fatal(err)
	}
	benchBatchByPartitions(b, edges, edges, edges, []int{1, 256, 1024, 8192})
}

// BenchmarkBatchByPartitionsRandom feeds the same sweep random-position
// input, as the repository benchmark's wire_bulk_large query pool does: a
// 12 M-edge stream, the sketch partitioned from its first third, and 4 M
// edges and queries drawn uniformly from the whole of it. About half of
// each batch then lands in the outlier shard and the rest arrives as groups
// of one or two keys scattered over most partitions, and adjacent draws
// almost never repeat an edge, so every arrival is a run of its own
// (runs/edge ≈ 1) — the input on which the cost of reaching a partition's
// counters, rather than of hashing into them, sets the batch time.
func BenchmarkBatchByPartitionsRandom(b *testing.B) {
	edges, err := graphgen.DefaultRMAT(22, 12<<20, 42).Generate()
	if err != nil {
		b.Fatal(err)
	}
	rng := hashutil.NewRNG(4242)
	drawn := make([]stream.Edge, 1<<22)
	for i := range drawn {
		drawn[i] = edges[rng.Uint64()%uint64(len(edges))]
	}
	benchBatchByPartitions(b, edges[:len(edges)/3], edges, drawn, []int{256, 2048, 8192})
}

// benchBatchByPartitions builds a 16 MiB sketch from sample at each
// partition cap, populates it with the stream and times batches cut from
// input (walking it, so consecutive calls touch different partitions and
// counters, as serving traffic does).
func benchBatchByPartitions(b *testing.B, sample, populate, input []stream.Edge, batches []int) {
	qs := make([]core.EdgeQuery, len(input))
	for i, e := range input {
		qs[i] = core.EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	for _, maxParts := range []int{16, 1 << 10, 1 << 14} {
		g, err := core.BuildGSketch(core.Config{
			TotalBytes: 16 << 20, Seed: 42, MaxPartitions: maxParts,
		}, sample, nil)
		if err != nil {
			b.Fatal(err)
		}
		c := core.NewConcurrent(g)
		core.Populate(c, populate)
		for _, batch := range batches {
			name := fmt.Sprintf("shards=%d/batch=%d", c.NumShards(), batch)
			runs := runsPerEdge(input, batch)
			b.Run(name+"/update", func(b *testing.B) {
				b.ReportAllocs()
				lo := 0
				for i := 0; i < b.N; i++ {
					if lo+batch > len(input) {
						lo = 0
					}
					c.UpdateBatch(input[lo : lo+batch])
					lo += batch
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/edge")
				b.ReportMetric(runs, "runs/edge")
			})
			b.Run(name+"/estimate", func(b *testing.B) {
				// The append path into the caller's buffer, as a serving
				// connection reads: no result slice per batch, so the cell
				// reports 0 allocs/op — checked here, because a benchmark's
				// own figure fails nothing.
				res := make([]core.Result, 0, batch)
				if allocs := testing.AllocsPerRun(10, func() { res = c.AppendEstimates(res[:0], qs[:batch]) }); allocs != 0 {
					b.Errorf("AppendEstimates into a reused buffer: %v allocs per batch, want 0", allocs)
				}
				b.ReportAllocs()
				var sink int64
				lo := 0
				for i := 0; i < b.N; i++ {
					if lo+batch > len(qs) {
						lo = 0
					}
					res = c.AppendEstimates(res[:0], qs[lo:lo+batch])
					sink += res[0].Estimate
					lo += batch
				}
				_ = sink
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/query")
			})
		}
	}
}

// runsPerEdge is the share of arrivals that start a run of adjacent equal
// edges when input is cut into consecutive batch-sized slices: the routed
// positions per edge of an update cell (a run never spans two batches).
func runsPerEdge(input []stream.Edge, batch int) float64 {
	runs, n := 0, 0
	for lo := 0; lo+batch <= len(input); lo += batch {
		for i, e := range input[lo : lo+batch] {
			if i == 0 || e.Src != input[lo+i-1].Src || e.Dst != input[lo+i-1].Dst {
				runs++
			}
		}
		n += batch
	}
	return float64(runs) / float64(n)
}

// --- Ablation benches --------------------------------------------------------

// BenchmarkAblationOutlierFraction sweeps the outlier width reservation.
func BenchmarkAblationOutlierFraction(b *testing.B) {
	reg := harness().Reg
	ds, err := reg.RMAT()
	if err != nil {
		b.Fatal(err)
	}
	queries := query.UniformEdgeQueries(ds.Exact, 2000, ds.Seed+12)
	for _, frac := range []float64{0.05, 0.10, 0.20} {
		b.Run(fmtFrac(frac), func(b *testing.B) {
			var are float64
			for i := 0; i < b.N; i++ {
				g, err := core.BuildGSketch(core.Config{
					TotalBytes: ds.FixedMemory, Seed: ds.Seed, OutlierFraction: frac,
				}, ds.DataSample, nil)
				if err != nil {
					b.Fatal(err)
				}
				core.Populate(g, ds.Edges)
				are = query.EvaluateEdgeQueries(g, ds.Exact, queries, query.DefaultG0).AvgRelErr
			}
			b.ReportMetric(are, "ARE")
		})
	}
}

// BenchmarkAblationBaseSynopsis runs gSketch over plain and
// conservative-update CountMin.
func BenchmarkAblationBaseSynopsis(b *testing.B) {
	reg := harness().Reg
	ds, err := reg.RMAT()
	if err != nil {
		b.Fatal(err)
	}
	queries := query.UniformEdgeQueries(ds.Exact, 2000, ds.Seed+12)
	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"countmin", core.Config{TotalBytes: ds.FixedMemory, Seed: ds.Seed}},
		{"countmin-conservative", core.Config{TotalBytes: ds.FixedMemory, Seed: ds.Seed, Conservative: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var are float64
			for i := 0; i < b.N; i++ {
				g, err := core.BuildGSketch(c.cfg, ds.DataSample, nil)
				if err != nil {
					b.Fatal(err)
				}
				core.Populate(g, ds.Edges)
				are = query.EvaluateEdgeQueries(g, ds.Exact, queries, query.DefaultG0).AvgRelErr
			}
			b.ReportMetric(are, "ARE")
		})
	}
}

// BenchmarkAblationTermination sweeps the partitioning-tree termination
// constants: the minimum width w0 (criterion 1) and the Theorem-1 constant
// C (criterion 2).
func BenchmarkAblationTermination(b *testing.B) {
	reg := harness().Reg
	ds, err := reg.RMAT()
	if err != nil {
		b.Fatal(err)
	}
	queries := query.UniformEdgeQueries(ds.Exact, 2000, ds.Seed+12)
	cases := []struct {
		name string
		w0   int
		c    float64
	}{
		{"w0-16-C-0.5", 16, 0.5},
		{"w0-64-C-0.5", 64, 0.5},
		{"w0-256-C-0.5", 256, 0.5},
		{"w0-64-C-0.1", 64, 0.1},
		{"w0-64-C-0.9", 64, 0.9},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var are float64
			var parts int
			for i := 0; i < b.N; i++ {
				g, err := core.BuildGSketch(core.Config{
					TotalBytes: ds.FixedMemory, Seed: ds.Seed,
					MinWidth: c.w0, CollisionC: c.c,
				}, ds.DataSample, nil)
				if err != nil {
					b.Fatal(err)
				}
				core.Populate(g, ds.Edges)
				are = query.EvaluateEdgeQueries(g, ds.Exact, queries, query.DefaultG0).AvgRelErr
				parts = g.NumPartitions()
			}
			b.ReportMetric(are, "ARE")
			b.ReportMetric(float64(parts), "partitions")
		})
	}
}

// BenchmarkAblationMaxPartitions caps the number of localized sketches.
func BenchmarkAblationMaxPartitions(b *testing.B) {
	reg := harness().Reg
	ds, err := reg.RMAT()
	if err != nil {
		b.Fatal(err)
	}
	queries := query.UniformEdgeQueries(ds.Exact, 2000, ds.Seed+12)
	for _, cap := range []int{2, 4, 8, 0} {
		name := "unbounded"
		switch cap {
		case 2:
			name = "max-2"
		case 4:
			name = "max-4"
		case 8:
			name = "max-8"
		}
		b.Run(name, func(b *testing.B) {
			var are float64
			for i := 0; i < b.N; i++ {
				g, err := core.BuildGSketch(core.Config{
					TotalBytes: ds.FixedMemory, Seed: ds.Seed, MaxPartitions: cap,
				}, ds.DataSample, nil)
				if err != nil {
					b.Fatal(err)
				}
				core.Populate(g, ds.Edges)
				are = query.EvaluateEdgeQueries(g, ds.Exact, queries, query.DefaultG0).AvgRelErr
			}
			b.ReportMetric(are, "ARE")
		})
	}
}

func fmtFrac(f float64) string {
	switch f {
	case 0.05:
		return "outlier-5pct"
	case 0.10:
		return "outlier-10pct"
	case 0.20:
		return "outlier-20pct"
	default:
		return "outlier-other"
	}
}

// BenchmarkInstrumentedUpdate quantifies the observability tax on the
// wire ingest hot path: the same per-edge sketch update, bare and with
// the per-frame instrumentation internal/server adds (one accepted-count
// add and one histogram observation per 512-edge frame). The two ns/op
// figures must stay within a few percent of each other — compare the
// sub-benchmarks when reviewing a change to internal/obs.
func BenchmarkInstrumentedUpdate(b *testing.B) {
	edges := benchStream(1 << 16)
	build := func(b *testing.B) *core.GSketch {
		g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: 1}, edges[:8192], nil)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	const frame = 512

	b.Run("raw", func(b *testing.B) {
		g := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Update(edges[i&(1<<16-1)])
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		g := build(b)
		reg := obs.NewRegistry()
		accepted := reg.Counter("bench_edges_accepted_total", "bench")
		applied := reg.Histogram("bench_frame_apply_seconds", "bench", nil)
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			g.Update(edges[i&(1<<16-1)])
			if i%frame == frame-1 {
				accepted.Add(frame)
				applied.ObserveSince(start)
				start = time.Now()
			}
		}
	})
}

// TestInstrumentationAddsNoAllocations is the alloc half of the
// observability overhead budget: the instrumented loop above must
// allocate exactly as much as the bare one — nothing. (The throughput
// half lives in BenchmarkInstrumentedUpdate; wall-clock ratios are too
// machine-dependent to assert in CI.)
func TestInstrumentationAddsNoAllocations(t *testing.T) {
	edges := benchStream(1 << 12)
	g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 20, Seed: 1}, edges[:1024], nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	accepted := reg.Counter("bench_edges_accepted_total", "bench")
	applied := reg.Histogram("bench_frame_apply_seconds", "bench", nil)
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		start := time.Now()
		for j := 0; j < 512; j++ {
			g.Update(edges[(i+j)&(1<<12-1)])
		}
		accepted.Add(512)
		applied.ObserveSince(start)
		i += 512
	}); n != 0 {
		t.Fatalf("instrumented 512-edge frame allocates %v, want 0", n)
	}
}
