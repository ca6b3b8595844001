// Package gsketch is a Go implementation of gSketch (Zhao, Aggarwal, Wang;
// PVLDB 5(3), 2011): partitioned CountMin sketches for edge-frequency and
// aggregate-subgraph query estimation over massive graph streams.
//
// # Model
//
// A graph stream is a sequence of directed edges (x, y; t), optionally
// weighted. Exact per-edge counting is infeasible — the distinct-edge
// universe is quadratic in the vertex count — so the stream is summarized
// in sub-linear space and queries are answered approximately:
//
//   - edge queries estimate the accumulated frequency of one edge;
//   - aggregate subgraph queries fold an aggregate Γ (SUM, MIN, MAX,
//     AVERAGE, COUNT) over the estimated frequencies of a bag of edges.
//
// # Why partitioning
//
// A single global CountMin sketch has additive error e·N/w for stream
// volume N and width w — crushing for the low-frequency edges real
// workloads care about. Real graph streams are globally skewed but locally
// similar: edges leaving the same vertex have correlated frequencies.
// gSketch exploits this by partitioning the sketch width across localized
// sketches chosen so each holds edges of similar expected frequency. The
// partitioning needs only compact per-vertex statistics estimated from a
// small stream sample (and, optionally, a query-workload sample), and is
// computed by a recursive pivot-scan over the paper's expected relative
// error objective.
//
// # Usage: the one-handle Engine
//
// Open builds the Engine — the single lifecycle-managed handle that owns
// the estimator, the concurrency wrapper, the batch-ingest pipeline,
// snapshot persistence, live workload capture and (optionally) adaptive
// repartitioning. One construction path scales from the paper's bare
// estimator to a full serving engine:
//
//	sample := edges[:100_000] // or a stream.Reservoir sample
//	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 1 << 20, Seed: 42},
//		gsketch.WithSample(sample),                  // partitioning sample (§4.1)
//		gsketch.WithWorkloadSample(workload),        // §4.2 objective (optional)
//		gsketch.WithIngest(gsketch.IngestConfig{}),  // parallel pipeline (optional)
//		gsketch.WithSnapshotDir("/var/lib/gsketch")) // persistence home (optional)
//	if err != nil { ... }
//	defer eng.Close()
//
//	_ = eng.Ingest(ctx, edges...)                // context-aware, batched
//	res := eng.Query(alice, bob)                 // bound-carrying Result
//	resp := eng.Answer(gsketch.SubgraphQuery{Edges: qs, Agg: gsketch.Sum})
//	fmt.Printf("%.0f ±%.0f\n", resp.Value, resp.ErrorBound)
//
// Exactly one bootstrap option picks the estimator: WithSample or
// WithSampleFile (the paper's partitioned gSketch, from a sample in memory
// or in an edge file it never holds), WithGlobal (the §3.2 baseline: a
// gSketch with no partitions, whose every answer is an outlier answer —
// Result.Outlier set, Partition NoPartition — and which snapshots and
// restores like any other),
// WithRestore/WithRestoreFile (resume a snapshot) or WithEstimator (adopt
// one built elsewhere). Everything else composes: WithAdaptive +
// WithAutoRepartition mount the generation chain and its drift manager,
// WithWindows makes the generations the §5 time windows (QueryWindow
// answers time ranges; it excludes WithAdaptive and the lifecycle options,
// sees what QueryBatch sees, and snapshots with every window),
// WithWorkloadRecorder the live query-workload reservoir. With
// WithIngest, Ingest blocks with backpressure and honors ctx cancellation
// while blocked, returning an *IngestCanceledError that names the prefix it
// queued; TryIngest never blocks and returns the typed ErrIngestQueueFull
// shed signal. Admit is the arm for a producer that owns a goroutine and a whole batch (the
// wire server's connections): it registers the batch as in flight without
// copying it into the queue and hands back an Admission whose Apply folds
// it on the caller's goroutine, so the caller can acknowledge in between.
// AppendQueryBatch is QueryBatch into the caller's buffer. A negative edge
// weight refuses the whole call with ErrNegativeWeight (the sketches count
// in the cash-register model). Drain waits — bounded by ctx — until
// accepted and admitted edges are applied; Close stops the adaptive loop,
// drains the pipeline, and (with WithSnapshotOnClose) persists a final
// snapshot.
//
// # Querying
//
// The read path is batched and bound-carrying, mirroring the sharded
// write path. Estimator.EstimateBatch answers a slice of EdgeQuery values
// in one routed pass — the batch is grouped by answering partition against
// the flat router, each touched partition's counters are probed once per
// group, and every Result returns in input order carrying:
//
//   - the point estimate (identical to EstimateEdge on the same state);
//   - the answering partition index, or the outlier flag;
//   - that sketch's additive error bound e·N_i/w_i, where N_i is the
//     LOCAL stream volume of the answering partition — the per-localized-
//     sketch guarantee of the paper's Theorem 1 / §3.2 analysis;
//   - the confidence 1-δ = 1-e^{-d} of that bound;
//   - a snapshot of the total stream volume N.
//
// Above the estimator sits the Query sum type: EdgeQuery, SubgraphQuery
// (a bag of edges folded with an Aggregate Γ) and NodeQuery (one source
// vertex against a destination set — routed to a single partition). Answer
// resolves any of them with one batched pass and combines the constituent
// bounds per aggregate; AnswerBatch flattens a heterogeneous batch into a
// single estimator call:
//
//	responses := gsketch.AnswerBatch(est, []gsketch.Query{
//		gsketch.EdgeQuery{Src: a, Dst: b},
//		gsketch.SubgraphQuery{Edges: edges10, Agg: gsketch.Sum},
//		gsketch.NodeQuery{Node: a, Out: []uint64{b, c}, Agg: gsketch.Max},
//	})
//
// Under Concurrent, a batched read acquires each striped lock at most once
// per internal chunk instead of once per query, and observes each
// partition's counters and local volume in one consistent snapshot.
// QueryWindow batches the same way (one pass per window for the whole
// batch).
//
// EstimateEdge(src, dst) remains on every estimator: one call, one bare
// point estimate, one lock round-trip under Concurrent. Any loop over more
// than a handful of queries should call EstimateBatch or Answer instead:
// same estimates, byte for byte, at better than 1.5× the throughput on a
// 16-partition sketch, plus the per-answer guarantees.
//
// # Batched and parallel ingestion
//
// The ingest hot path is batched end to end. Estimator.UpdateBatch routes
// a whole slice of edges at once — one pass over the flat vertex→partition
// router groups the batch by destination partition, then the bank holding
// every partition's CountMin absorbs the grouped batch in one kernel call.
// Within a partition the stream order is preserved, so batched counters are
// byte-identical to per-edge Update. Engine.Ingest and Populate use this
// path.
//
// Every engine serves its estimator through a Concurrent wrapper: because
// the router is immutable after construction, each partition (plus the
// outlier sketch) is an independent update domain, and the wrapper shards
// its locks by partition instead of serializing every writer behind one
// mutex. WithIngest adds a full pipeline on top — a bounded multi-producer
// queue drained by N workers:
//
//	eng, err := gsketch.Open(cfg, gsketch.WithSample(sample),
//		gsketch.WithIngest(gsketch.IngestConfig{}))
//	if err != nil { ... }
//	_ = eng.Ingest(ctx, edges...) // from any number of goroutines; blocks when full
//	_ = eng.Close()               // drain, stop workers
//
// Throughput note: on a single core the batched sharded path sustains
// roughly twice the edges/sec of per-edge updates behind a single mutex
// (lock amortization plus partition-local cache residency); with multiple
// cores the sharded writers scale further because batches touching
// disjoint partitions never contend. The repository benchmark (benchmark/)
// measures each layer: core.gsketch_update_ns_per_edge and
// core.concurrent_update_ns_per_edge for the write path,
// ingest.push_ns_per_edge for the queue, and core.gsketch_estimate_ns_per_query
// and engine.query_ns_per_query for the read side.
//
// # Serving and the workload-capture loop
//
// cmd/gsketch-serve (backed by internal/server) exposes an Engine over
// HTTP/JSON as a long-lived process: NDJSON batch ingest with backpressure
// mapped to 429 (Engine.TryIngest and its typed ErrIngestQueueFull),
// batched bound-carrying queries, consistent snapshots (Engine.Save under
// all lock stripes' read locks, Engine.Restore to swap one back in), and
// graceful drain-then-stop shutdown via Engine.Close.
//
// The same operations are served over a binary wire protocol
// (internal/wire, gsketch-serve -wire-addr), where the two transports part
// ways on ingest. An HTTP/1.1 handler cannot reply and keep working, so
// HTTP ingest goes through the queue: the workers fold while the client
// turns around, and a full queue is a 429. A wire connection is one
// goroutine and its own worker: it admits a decoded frame (Engine.Admit),
// writes the ack, then folds the frame, whole, out of the buffer it was
// decoded into — no copy into the queue, no re-batching, no shedding. A
// frame of 1024 edges or more folds on a goroutine of its own while the
// connection reads the next frame, which waits for that fold. An ack
// therefore means "applied by the time any later flush, ?sync=1, snapshot,
// restore or Close returns", on any connection; rejected > 0 is left for a
// tenant over its quota; and backpressure is one decoded frame beside one
// fold per connection, then the TCP window. The price is that one
// connection folds on one core (about 16 M edges/s); a producer scales by
// opening connections, which the stripe locks serve in parallel, and
// -workers/-batch/-queue shape the HTTP arm only.
//
// The engine also closes the paper's sample-collection loop: §4.2 assumes
// a query-workload sample is simply "available", and the serving layer is
// where it actually comes from. WithWorkloadRecorder mounts a reservoir
// over served queries (exported by GET /workload and Engine.Workload) in
// the exact text edge format WithWorkloadSample accepts, so a recorded
// workload feeds a rebuild with the workload-aware partitioning objective.
//
// # Adaptive repartitioning and generation bounds
//
// The recorded workload need not leave the process: a Chain plus
// Repartition rebuild and hot-swap the partitioning online. The chain
// keeps one live head sketch (absorbing all updates) and freezes each
// displaced generation; an edge's true frequency over the whole stream is
// exactly the sum of its per-generation frequencies, which gives the
// combination rule for answers gathered across a chain of k generations:
//
//   - estimates sum: each generation's CountMin upper-bounds its own
//     segment, so Σ f̃_g upper-bounds the whole stream;
//   - error bounds add: generation g's answer overshoots by at most
//     ε·N_g with probability 1-δ, so the summed estimate overshoots by at
//     most Σ ε·N_g when every generation's guarantee holds;
//   - one δ is split across the k generations: each bound widens by
//     k^(1/d), which makes every generation fail with probability at most
//     δ/k, so the answer keeps confidence 1-δ = 1-e^{-d} however long the
//     chain grows.
//
// The loop closes as record → rebuild → swap, entirely inside an adaptive
// engine: Engine.QueryBatch records live queries, the manager measures
// drift (total-variation divergence of the live workload against the
// build-time baseline, plus the outlier sketch's share of routed query
// traffic — see RouteCounts) and on threshold (WithAutoRepartition) or on
// demand (Engine.Repartition) rebuilds from fresh samples and rotates the
// result in as the new head. Chain snapshots serialize every generation
// in one container (Engine.Save); any engine serves them, and pre-chain
// snapshots load unchanged as single-generation chains.
//
// # Generation lifecycle
//
// Every engine serves a generation chain. Without a rotation policy it is
// static: one generation (or the ones a restored snapshot carries), no
// data reservoir, nothing that rotates. Left unmanaged, an adaptive chain
// accumulates a generation per rotation, its memory growing and its bounds
// widening, until it hits ErrMaxGenerations. The lifecycle options
// (backed by internal/compact) keep it bounded: WithCompaction mounts a
// fold policy — the oldest frozen generations merge cell-wise when they
// share a hash layout (lossless; bounds combine to ε·ΣN_g) or
// re-partition from their retained reservoirs otherwise, and the chain
// folds before a rotation at its cap rather than refuse it — and
// WithTiering spills cold frozen generations to file-backed segments
// with lazy reload on query. One goroutine per engine runs the drift
// check and the compaction policy. Engine.Compact folds on demand (POST
// /compact when serving); chain snapshots carry the per-generation
// lifecycle records and older snapshot versions still load. See the
// README's Generation lifecycle section and the internal/compact package
// documentation.
//
// # One process
//
// gSketch is a single-node estimator, and so is the serving system: one
// process serves one engine or one tenant registry. A scatter-gather
// coordinator over N engines (internal/cluster) survives only as a rung
// of the benchmark ladder; no server mode runs it.
//
// # Multi-tenant serving
//
// internal/tenant packs many isolated sketches into one process
// (cmd/gsketch-serve -tenants). A registry of named engines scopes the
// whole serving surface under /t/{tenant}/... with an admin API for the tenant set, per-tenant token-bucket ingest
// quotas shedding with the same accepted-prefix 429 semantics as a full
// pipeline, and a lazy lifecycle: an LRU resident cap snapshots cold
// tenants to disk and transparently reopens them on next access with
// byte-identical answers. Wire connections bind to a tenant with a
// tenant-select frame. See the README's Multi-tenancy section and the
// internal/tenant package documentation.
//
// # Bootstrap cost
//
// Partitioning is paid for on every boot, tenant create and adaptive
// repartition, and the paper reports it as a result of its own: sketch
// construction time T_c (Figure 13; cmd/gsketch-bench -run fig13 prints
// it). The path from a sample file to a ready Engine is a few sequential
// passes over flat slices, and with WithSampleFile (what gsketch-serve
// -sample uses) it never holds the sample: the edge file is decoded in
// 64 KiB chunks up to the sample cap (stream.EdgeScanner) and read twice.
// The passes work on runs — maximal streaks of consecutive sample edges with
// the same (src, dst), which add to f̃v but hold one destination. Pass 1
// sums f̃v edge by edge, interns each run's source through a flat
// open-addressing table and records its vertex; pass 2 scatters each run's
// destination into one segment per source; d̃ counts distinct values per
// sorted segment — 12 bytes per run, no per-edge hash set. The saving is
// proportional to adjacent repetition and nothing on a run-free sample.
// WithSample runs the same passes over a slice and drops it once the
// estimator is built. A text sample is parsed twice; a file that changes
// between the passes fails Open. Vertices sort on precomputed keys, and the
// tree hands its assignment to the router as parallel slices in
// ascending-id order. Every build runs on the calling goroutine, the small
// rebuilds an adaptive engine runs beside live traffic included. At 4 Mi
// sample edges (492 k runs, 435 k sources, 16 k partitions, 2 vCPUs) file →
// ready engine takes about 0.33 s and allocates 142 MB through
// WithSampleFile (about 0.35 s and 276 MB reading the sample into memory
// first; 1.4 s and 669 MB for the map-based construction before), with
// byte-identical output; the README's Bootstrap cost section has the
// per-stage table. Peak RSS of a serving process booted from a large sample
// is set here, not by the sketch: by the passes, the per-vertex copies of
// the sort and the assignment, and the collector's pacing, which lets the
// heap reach twice what is live. On that sample VmHWM at ready fell from
// 266 MB, with the sample held, to 154.5 MB, and to about 97 MB once the
// passes kept 12 bytes per run instead of per edge.
//
// # Ingest cost
//
// Graph streams repeat edges back to back — the same interaction recurs,
// which is what the paper's edge frequencies count — so the one fold behind
// every ingest path, core's routed batch grouping, folds each maximal run of
// adjacent arrivals of one (Src, Dst) into one position that carries the
// run's weight sum (a zero weight counting as 1), and routes, hashes and
// updates the counters once per run. The fold is exact in both update
// modes: CountMin adds commute within a key, and a conservative raise by w₁
// then w₂ leaves max(c, m+w₁+w₂) in each cell, as one raise by w₁+w₂ does.
// That holds for adjacent arrivals only, so a repeat with another edge
// between is not folded: it would move a conservative update past the other
// key's. Every stream-volume sum saturates at MaxInt64, as the 2³²−1 cells
// do, which keeps the fold exact at the top of the range and the ε·N bounds
// non-negative for any weights. Stream totals, routed-write counts and the
// reservoirs still count every arrival. On the
// repository benchmark's streams 87.8 % (wire_bulk_small), 88.2 %
// (wire_bulk_large), about 88 % (http_tenants) and 0 % (wire_mixed_paced, a
// Zipf carousel) of arrivals repeat the edge before them in their frame;
// the README's Ingest cost section has what that buys.
//
// # Observability
//
// Serving processes are first-class scrape targets: internal/obs is a
// dependency-free metrics kit (atomic counters, gauges and fixed-bucket
// latency histograms rendered as Prometheus text exposition) that
// internal/server threads through every layer — per-route HTTP latency,
// wire frame decode/apply latency, ingest queue depth and shed counts,
// engine and per-tenant gauges — on GET /metrics, with GET /stats
// rendering the same counters and gauges as JSON. GET /healthz
// (liveness) is split from GET /readyz (readiness): a server mid-restore
// or mid-swap reports 503 on /readyz while staying alive on /healthz. Logging is structured
// log/slog throughout (gsketch-serve -log-level, -log-format json), and
// -pprof-addr mounts net/http/pprof on a private listener. The hot-path
// instruments are allocation-free, so instrumentation does not tax the
// wire ingest path's allocs-per-edge guard.
//
// The package front-loads the most common operations; the full machinery
// (partitioning internals, sketches, generators, the experiment harness)
// lives in the internal packages and is documented in their package
// comments.
package gsketch
