package main

import (
	"fmt"
	"time"
)

// refSeconds is the run length the op-count constants below are written
// for. A run with another --seconds scales the number of cycles (closed
// loop) or the length of the schedule (open loop) linearly, so counts are
// always constants times the requested length and never derived from a
// measured rate.
const refSeconds = 20

// Latency limits behind within_limit_pct.
const (
	ingestLimit = 20 * time.Millisecond
	queryLimit  = 10 * time.Millisecond
)

// accuracyQueries is the size of the seeded accuracy set evaluated after
// the last ingest (fewer when the shadow holds fewer keys).
const accuracyQueries = 50000

// A closed-loop run is a warm-up and then Cycles identical cycles: an
// ingest slice ended by the flush barrier, a query slice, and one sample of
// the reference job (reference.go). A slice is about a tenth of a second of
// traffic, so the reference job is sampled four times a second for as long
// as the run lasts, and a change of the host's speed inside the run reaches
// both in the same proportion.
const minCycles = 3

// The open loop pauses its schedule four times a phase for pacedGap, at the
// odd eighths of the phase: as far as the schedule allows from the phase
// boundary (flush, repartition) and from the fold in the middle of the
// phase. The reference job is sampled in each pause. The pauses are part of
// the fixed schedule, so the loop stays open: no due time depends on a
// reply.
const (
	pacedGapsPerPhase = 4
	pacedGap          = 25 * time.Millisecond
)

// workload is one traffic mix. Names are permanent: later issues cite them.
type workload struct {
	Name string
	Why  string

	// Conns is the number of load-generating connections, one goroutine
	// each; never more than the reference host's two CPUs.
	Conns   int
	HTTP    bool // HTTP/1.1 keep-alive instead of the binary wire protocol
	Paced   bool // open loop on a fixed schedule instead of closed loop
	Adapt   bool // adaptive engine with compaction and tiering
	Tenants int  // > 0: multi-tenant server with this many tenants

	SketchBytes int // server -bytes (per tenant under Tenants)
	SampleCap   int // server -sample-cap; the sample file holds this many edges
	SetupReps   int // set-ups timed per run; setup_s is their median

	// Stream: an R-MAT buffer, or with Phases > 0 a zipf carousel of that
	// many phases of StreamEdges/Phases edges each.
	RMATScale   int
	StreamEdges int
	Phases      int
	// ShadowShift selects 1/2^ShadowShift of the edge keys into the exact
	// shadow.
	ShadowShift uint

	FrameEdges int // edges per ingest frame or NDJSON chunk
	QueryBatch int // queries per batch

	// Closed loop: ops per slice, and cycles per run at refSeconds.
	SliceEdges   int
	SliceQueries int
	Cycles       int
	// Open loop: fixed offered rates.
	EdgesPerSec   int
	BatchesPerSec int

	// Shape the workload must keep, or the run fails instead of silently
	// measuring something else.
	MinPartitions int
	MinSources    int
}

var workloads = []workload{
	{
		Name: "wire_bulk_small",
		Why: "closed loop, wire, 2 conns, 1 MiB sketch in L2, 256-edge frames: per-frame work (wire decode, " +
			"server pipeline, ingest hand-off, stripe locks) outweighs the CountMin kernel",
		Conns: 2, SketchBytes: 1 << 20, SampleCap: 1 << 16, SetupReps: 9,
		RMATScale: 14, StreamEdges: 4 << 20, ShadowShift: 3,
		FrameEdges: 256, QueryBatch: 512,
		SliceEdges: 1 << 19, SliceQueries: 1 << 19, Cycles: 80,
	},
	{
		Name: "wire_bulk_large",
		Why: "closed loop, wire, 2 conns, 16 MiB sketch and 12 MB router far beyond L2, 8192-edge frames: " +
			"sketch rows, hashutil and router lookups dominate, protocol cost is amortised",
		Conns: 2, SketchBytes: 16 << 20, SampleCap: 4 << 20, SetupReps: 3,
		RMATScale: 22, StreamEdges: 12 << 20, ShadowShift: 4,
		FrameEdges: 8192, QueryBatch: 2048,
		SliceEdges: 48 * 8192, SliceQueries: 180 * 2048, Cycles: 72,
		MinPartitions: 4096, MinSources: 1 << 18,
	},
	{
		Name: "wire_mixed_paced",
		Why: "open loop, 1 M edges/s on one conn beside 500x512 queries/s on another, one adaptive engine " +
			"that rotates, folds and spills on schedule: where writers, readers and swaps contend",
		Conns: 2, Paced: true, Adapt: true,
		SketchBytes: 4 << 20, SampleCap: 1 << 16, SetupReps: 9,
		StreamEdges: 8 << 20, Phases: 8, ShadowShift: 4,
		FrameEdges: 2048, QueryBatch: 512,
		EdgesPerSec: 1 << 20, BatchesPerSec: 500,
	},
	{
		Name: "http_tenants",
		Why: "closed loop, HTTP/1.1 keep-alive, 1 client over 8 resident 1 MiB tenants: NDJSON/JSON and tenant " +
			"resolution do nearly all the work; wire, kernel and lock changes should not move it",
		Conns: 1, HTTP: true, Tenants: 8,
		SketchBytes: 1 << 20, SampleCap: 1 << 16, SetupReps: 9,
		RMATScale: 14, StreamEdges: 1 << 20, ShadowShift: 2,
		FrameEdges: 2048, QueryBatch: 512,
		SliceEdges: 24 * 2048, SliceQueries: 64 * 512, Cycles: 88,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sized is a workload resolved against a run length and scale: every op
// count the run will execute.
type sized struct {
	*workload
	Seconds float64
	Smoke   bool

	StreamEdges  int // replay buffer length, whole frames
	SampleEdges  int
	Cycles       int // timed cycles of a closed-loop run
	SliceFrames  int // ingest frames per slice (all connections)
	SliceBatches int // query batches per slice
	WarmFrames   int // ingest frames of the warm-up rep: a twelfth of the run's
	WarmBatches  int
	// The two reps of a traced run are a sixth of an untraced run's work
	// each: with the ladder still to run, it has to fit the same time.
	TraceFrames  int
	TraceBatches int
	// Open loop: totals over the whole run.
	PacedFrames  int
	PacedBatches int
}

// roundTo rounds n up to a positive multiple of m.
func roundTo(n, m int) int {
	if n < m {
		return m
	}
	return (n + m - 1) / m * m
}

// size resolves the op counts of w for a run of the given length. Smoke
// scale divides slices and buffers by 100 so tests finish in seconds; full
// scale never shrinks a buffer.
func (w *workload) size(seconds float64, smoke bool) sized {
	s := sized{workload: w, Seconds: seconds, Smoke: smoke}
	stream, sample := w.StreamEdges, w.SampleCap
	if smoke {
		stream /= 100
		if sample > stream/4 {
			sample = stream / 4
		}
	}
	unit := w.FrameEdges
	if w.Phases > 0 {
		unit *= w.Phases // every phase holds whole frames
	}
	s.StreamEdges = roundTo(stream, unit)
	s.SampleEdges = sample
	if w.Paced {
		// Whole frames per phase, so phase boundaries fall on frame edges.
		perPhase := func(perSec int) int {
			n := int(float64(perSec) * seconds / float64(w.Phases))
			if n < 1 {
				n = 1
			}
			return n * w.Phases
		}
		s.PacedFrames = perPhase(w.EdgesPerSec / w.FrameEdges)
		s.PacedBatches = perPhase(w.BatchesPerSec)
		return s
	}
	// Each connection sends the same number of ops per rep; HTTP clients
	// additionally walk their tenants round-robin in whole turns.
	turn := w.Conns
	if w.Tenants > 0 {
		turn = w.Tenants
	}
	shrink := 1
	if smoke {
		shrink = 100
	}
	s.Cycles = max(int(float64(w.Cycles)*seconds/refSeconds+0.5), minCycles)
	s.SliceFrames = roundTo(w.SliceEdges/w.FrameEdges/shrink, turn)
	s.SliceBatches = roundTo(w.SliceQueries/w.QueryBatch/shrink, turn)
	warm, traced := max(s.Cycles/12, 1), max(s.Cycles/6, 1)
	s.WarmFrames, s.WarmBatches = warm*s.SliceFrames, warm*s.SliceBatches
	s.TraceFrames, s.TraceBatches = traced*s.SliceFrames, traced*s.SliceBatches
	return s
}

// metricDef declares one metric: BENCHMARK.json carries the same list and
// the test keeps the two from drifting.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd is what a user of the serving system sees; every metric is
// reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_edges_per_s", "1/s", "higher", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"ingest_mid_ms", "ms", "lower", 0.25},
	{"query_mid_ms", "ms", "lower", 0.25},
	{"within_limit_pct", "%", "higher", 0.05},
	{"avg_rel_error", "ratio", "lower", 0.20},
	{"effective_query_pct", "%", "higher", 0.08},
	{"server_cpu_s", "s", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.25},
	{"ok_op_pct", "%", "higher", 0.01},
}

// perLayer is the layer ladder plus the traced rep's own counters.
var perLayer = []metricDef{
	{"hashutil.hash_ns_per_key", "ns", "lower", 0},
	{"sketch.update_ns_per_edge", "ns", "lower", 0},
	{"sketch.estimate_ns_per_query", "ns", "lower", 0},
	{"sketch.memory_bytes", "B", "lower", 0},
	{"vstats.from_sample_s", "s", "lower", 0},
	{"core.build_s", "s", "lower", 0},
	{"core.partitions", "count", "higher", 0},
	{"core.router_bytes", "B", "lower", 0},
	{"core.router_ns_per_lookup", "ns", "lower", 0},
	{"core.router_hit_pct", "%", "higher", 0},
	{"core.gsketch_update_ns_per_edge", "ns", "lower", 0},
	{"core.gsketch_estimate_ns_per_query", "ns", "lower", 0},
	{"core.concurrent_update_ns_per_edge", "ns", "lower", 0},
	{"core.concurrent_update_par_ns_per_edge", "ns", "lower", 0},
	{"core.concurrent_estimate_ns_per_query", "ns", "lower", 0},
	{"core.concurrent_mixed_estimate_ns_per_query", "ns", "lower", 0},
	{"core.snapshot_write_s", "s", "lower", 0},
	{"core.snapshot_read_s", "s", "lower", 0},
	{"core.snapshot_bytes", "B", "lower", 0},
	{"ingest.push_ns_per_edge", "ns", "lower", 0},
	{"ingest.queue_depth_max", "count", "lower", 0},
	{"ingest.sheds", "count", "lower", 0},
	{"ingest.batches", "count", "lower", 0},
	{"engine.open_s", "s", "lower", 0},
	{"engine.ingest_ns_per_edge", "ns", "lower", 0},
	{"engine.query_ns_per_query", "ns", "lower", 0},
	{"query.answer_ns_per_term", "ns", "lower", 0},
	{"adapt.chain_estimate_g1_ns_per_query", "ns", "lower", 0},
	{"adapt.chain_estimate_g4_ns_per_query", "ns", "lower", 0},
	{"adapt.repartition_ms", "ms", "lower", 0},
	{"adapt.generations_max", "count", "lower", 0},
	{"compact.fold_ms", "ms", "lower", 0},
	{"compact.spill_ms", "ms", "lower", 0},
	{"compact.reload_ms", "ms", "lower", 0},
	{"compact.folds", "count", "higher", 0},
	{"compact.reloads", "count", "higher", 0},
	{"wire.encode_ns_per_edge", "ns", "lower", 0},
	{"wire.decode_ns_per_edge", "ns", "lower", 0},
	{"wire.query_codec_ns_per_query", "ns", "lower", 0},
	{"wire.bytes_per_edge", "B", "lower", 0},
	{"server.wire_ingest_ns_per_edge", "ns", "lower", 0},
	{"server.wire_query_ns_per_query", "ns", "lower", 0},
	{"server.http_ingest_ns_per_edge", "ns", "lower", 0},
	{"server.http_query_ns_per_query", "ns", "lower", 0},
	{"server.wire_ingest_allocs_per_edge", "1/edge", "lower", 0},
	{"server.wire_query_allocs_per_query", "1/query", "lower", 0},
	{"server.http_ingest_allocs_per_edge", "1/edge", "lower", 0},
	{"server.http_query_allocs_per_query", "1/query", "lower", 0},
	{"server.apply_ingest_p50_ms", "ms", "lower", 0},
	{"server.apply_query_p50_ms", "ms", "lower", 0},
	{"server.apply_query_p99_ms", "ms", "lower", 0},
	{"tenant.http_ingest_ns_per_edge", "ns", "lower", 0},
	{"tenant.evict_ms", "ms", "lower", 0},
	{"tenant.reopen_ms", "ms", "lower", 0},
	{"cluster.ingest_ns_per_edge", "ns", "lower", 0},
	{"cluster.query_s1_ns_per_query", "ns", "lower", 0},
	{"cluster.query_s2_ns_per_query", "ns", "lower", 0},
	{"server.cpu_ns_per_edge", "ns", "lower", 0},
	{"server.cpu_ns_per_query", "ns", "lower", 0},
	{"loadgen.cpu_s", "s", "lower", 0},
	{"loadgen.late_p99_ms", "ms", "lower", 0},
	{"loadgen.retries", "count", "lower", 0},
	{"loadgen.ingest_p99_ms", "ms", "lower", 0},
	{"loadgen.query_p99_ms", "ms", "lower", 0},
	{"loadgen.ingest_steady_p99_ms", "ms", "lower", 0},
	{"loadgen.query_steady_p99_ms", "ms", "lower", 0},
	{"failed_op_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"host.slower_ratio", "ratio", "lower", 0},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a declaration list and refuses names
// that were not declared or were already set.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]metricDef, len(defs)), vals: make(map[string]metric, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic("benchmark: undeclared metric " + name)
	}
	if _, dup := m.vals[name]; dup {
		panic("benchmark: metric set twice: " + name)
	}
	m.vals[name] = metric{Value: v, Unit: d.Unit}
}

// benchmarkJSON is the schema of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []metricJSON   `json:"end_to_end"`
	PerLayer   []metricJSON   `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only
}

// declaration is what BENCHMARK.json must say, derived from the tables
// above; the test compares the file with it so the two cannot drift.
func declaration() benchmarkJSON {
	d := benchmarkJSON{
		Command:    []string{"bash", "benchmark/bench.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: refSeconds,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, workloadJSON{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		d.EndToEnd = append(d.EndToEnd, metricJSON{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, metricJSON{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return d
}
