// Command gsketch-serve runs the gSketch serving subsystem: an HTTP/JSON
// frontend over a gsketch.Engine — the one-handle facade owning the sharded
// batch-ingest pipeline, the striped-lock estimator, snapshot persistence
// and live query-workload capture.
//
// Usage:
//
//	gsketch-serve -addr :7071 -sample edges.txt [-workload workload.txt]
//	gsketch-serve -addr :7071 -restore state.gsk
//	gsketch-serve -addr :7071 -global
//	gsketch-serve -addr :7071 -wire-addr :7072 -sample edges.txt
//
// Exactly one bootstrap source decides the estimator: -restore loads a
// snapshot, -sample builds a partitioned gSketch from an edge file (plus an
// optional -workload sample for the §4.2 objective), and -global runs the
// unpartitioned baseline (no sample needed, weaker per-partition bounds).
//
// Endpoints (see internal/server):
//
//	POST /ingest            NDJSON edges; 429 when the pipeline sheds load
//	POST /query             batched edge queries with error bounds
//	POST /query/window      time-range queries (with -window-span)
//	GET  /snapshot          stream the sketch state
//	POST /snapshot/save     persist a snapshot (default path: -snapshot)
//	POST /snapshot/restore  swap in a snapshot
//	GET  /workload          recorded query-workload sample (text edges)
//	POST /repartition       rebuild + hot-swap a new generation (-adapt)
//	POST /compact           fold the oldest frozen generations (-adapt)
//	GET  /healthz, /readyz  liveness / readiness (503 during state swaps)
//	GET  /stats, /metrics   JSON counters / Prometheus text exposition
//
// Logs are structured (log/slog): -log-level picks the floor
// (debug|info|warn|error), -log-format picks text or json. -pprof-addr
// mounts net/http/pprof on a separate private listener.
//
// With -wire-addr the same operations are additionally served as the
// binary wire protocol (see internal/wire) on a raw TCP listener —
// batched fixed-width frames with none of the JSON cost, driven by
// cmd/gsketch-wire or any client speaking the frame format. POST /ingest
// and /query also accept wire-framed bodies with Content-Type
// application/x-gsketch-wire. A wire connection folds its own ingest frames
// behind their acks, on one core per connection: open more connections for
// more throughput. -workers, -batch and -queue shape the queue that HTTP
// ingest goes through and do not apply to wire connections.
//
// With -adapt the engine serves a generation chain: POST /repartition (or
// the -adapt-interval auto-trigger, when drift crosses -adapt-drift /
// -adapt-outlier) rebuilds the partitioning from the live data reservoir
// and the recorded query workload and hot-swaps it in as a new generation;
// queries keep answering over the whole stream with combined bounds, and
// snapshots carry the full chain.
//
// The chain's generation lifecycle is managed with the compaction, tiering
// and decay flags (all require -adapt). -compact-max-gens / -compact-age /
// -compact-mem set the background fold triggers (checked every
// -compact-interval; -compact-fold generations fold per pass, and the
// repartition manager also folds on demand before a rotation that would
// hit -adapt-max-gens, so the cap stops refusing). -tier-dir spills cold
// frozen generations to disk past -tier-resident resident ones, reloading
// them lazily on query. -decay-half-life down-weights frozen generations'
// contributions by 2^(-age/halfLife) at query time. POST /compact folds on
// demand.
//
// With -cluster the process runs as a scatter-gather coordinator instead
// of an engine: each listed address is one shard — a plain gsketch-serve
// -wire-addr process — and this frontend routes ingest by the gSketch
// partitioning (built from -sample, so every partition's substream lands
// wholly on one shard), fans queries out over persistent wire connections,
// and folds the per-shard answers into combined estimates and bounds.
// Coordinator mode serves the same /ingest, /query, /snapshot/save,
// /snapshot/restore, /healthz and /stats surface; engine-only endpoints
// (streaming GET /snapshot, /workload, /repartition, /query/window) are
// not mounted, so -restore, -global, -adapt and -window-span are refused.
// -snapshot names the local topology manifest; each shard persists to its
// own -snapshot path.
//
// With -tenants the process serves many isolated sketches from one
// registry (see internal/tenant): the data path moves under
// /t/{tenant}/... and an admin API (PUT|DELETE|GET /t/{tenant}, GET /t)
// manages the tenant set. Each tenant is an independent engine with its
// own quotas (-tenant-max-edges-per-sec / -tenant-burst registry-wide,
// overridable per tenant in the PUT body); -tenant-max-resident caps how
// many engines stay live — cold tenants are snapshotted into -tenant-dir
// and transparently reopened on access. On the wire listener, clients
// bind a connection to a tenant with a tenant-select frame (gsketch-wire
// -tenant). Engine-only flags (-restore, -global, -adapt, -window-span,
// -cluster) are refused; -sample optionally seeds every tenant's
// partitioning.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops, the ingest
// queue drains, and (with -snapshot-on-exit) a final snapshot lands at
// -snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // handlers mounted on the -pprof-addr listener only
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/cluster"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/server"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
)

// fatal logs at error level and exits; the slog replacement for
// log.Fatalf.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", ":7071", "listen address")
		wireAddr = flag.String("wire-addr", "", "binary wire-protocol listen address (empty = disabled)")

		restorePath  = flag.String("restore", "", "bootstrap from this snapshot file")
		samplePath   = flag.String("sample", "", "bootstrap a partitioned gSketch from this edge file (text or binary)")
		workloadPath = flag.String("workload", "", "optional query-workload sample steering partitioning (§4.2)")
		global       = flag.Bool("global", false, "bootstrap the unpartitioned GlobalSketch baseline")
		sampleCap    = flag.Int("sample-cap", 1<<16, "max edges of -sample read and used for partitioning (0 = all)")

		totalBytes = flag.Int("bytes", 4<<20, "counter memory budget in bytes")
		depth      = flag.Int("depth", 0, "sketch depth d (0 = default)")
		seed       = flag.Uint64("seed", 42, "hash-family seed")
		partitions = flag.Int("partitions", 0, "partition cap (0 = unbounded)")

		workers   = flag.Int("workers", 0, "HTTP ingest workers (0 = GOMAXPROCS); wire connections fold their own frames")
		batchSize = flag.Int("batch", 0, "HTTP ingest batch size (0 = default 1024)")
		queue     = flag.Int("queue", 0, "HTTP ingest queue depth in batches (0 = 4x workers)")

		snapshotPath   = flag.String("snapshot", "gsketch.snap", "default snapshot path for /snapshot/save and -snapshot-on-exit")
		snapshotOnExit = flag.Bool("snapshot-on-exit", false, "save a final snapshot during graceful shutdown")

		workloadCap  = flag.Int("workload-cap", 4096, "query-workload reservoir capacity (negative disables capture)")
		windowSpan   = flag.Int64("window-span", 0, "enable the windowed store with this span (0 = disabled)")
		windowSample = flag.Int("window-sample", 1024, "per-window reservoir size for the windowed store")

		adaptOn       = flag.Bool("adapt", false, "serve a generation chain with adaptive repartitioning (POST /repartition; incompatible with -global)")
		adaptSample   = flag.Int("adapt-sample", 8192, "data-reservoir capacity feeding rebuilds (with -adapt)")
		adaptMaxGens  = flag.Int("adapt-max-gens", 8, "generation cap of the chain (with -adapt)")
		adaptInterval = flag.Duration("adapt-interval", 0, "auto-repartition check interval (0 = on-demand only)")
		adaptDrift    = flag.Float64("adapt-drift", 0.5, "workload-divergence threshold for auto repartitioning")
		adaptOutlier  = flag.Float64("adapt-outlier", 0.25, "outlier-share threshold for auto repartitioning")

		compactMaxGens  = flag.Int("compact-max-gens", 0, "fold old generations when the chain exceeds this length (0 = disabled; with -adapt)")
		compactAge      = flag.Duration("compact-age", 0, "fold when the oldest frozen generation exceeds this age (0 = disabled)")
		compactMem      = flag.Int64("compact-mem", 0, "fold when the chain's resident counter bytes exceed this (0 = disabled)")
		compactFold     = flag.Int("compact-fold", 0, "generations folded per compaction (0 = default 2)")
		compactInterval = flag.Duration("compact-interval", 0, "background compaction check interval (0 = default 30s)")
		tierDir         = flag.String("tier-dir", "", "spill cold frozen generations to files under this directory (with -adapt)")
		tierResident    = flag.Int("tier-resident", 0, "max frozen generations kept resident in RAM with -tier-dir")
		decayHalfLife   = flag.Duration("decay-half-life", 0, "age-decay half-life for frozen generations at query time (0 = disabled)")

		tenantsOn     = flag.Bool("tenants", false, "serve a multi-tenant registry: data path under /t/{tenant}/..., admin API at /t")
		tenantDir     = flag.String("tenant-dir", "tenants", "tenant registry root: manifest plus one snapshot dir per tenant (with -tenants)")
		tenantMaxRes  = flag.Int("tenant-max-resident", 0, "max tenants with a live engine; LRU-evict to disk past it (0 = unlimited)")
		tenantMaxRate = flag.Float64("tenant-max-edges-per-sec", 0, "default per-tenant ingest rate cap (0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "default per-tenant token-bucket burst (0 = one second of rate)")

		clusterAddrs = flag.String("cluster", "", "comma-separated shard wire addresses; run as a scatter-gather coordinator (needs -sample)")
		clusterBatch = flag.Int("cluster-batch", 0, "coordinator per-shard ingest batch in edges (0 = default)")
		clusterQueue = flag.Int("cluster-queue", 0, "coordinator per-shard queue depth in batches (0 = default)")
		clusterPing  = flag.Duration("cluster-ping", 0, "shard health-probe interval (0 = default, negative disables)")

		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "graceful shutdown deadline")

		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn or error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gsketch-serve: %v\n", err)
		os.Exit(2)
	}
	if *sampleCap < 0 {
		fmt.Fprintf(os.Stderr, "gsketch-serve: -sample-cap %d: must be ≥ 0 (0 reads the whole file)\n", *sampleCap)
		os.Exit(2)
	}
	// root stays untagged: server and cluster attach their own component
	// attrs; main's own lines carry component=serve.
	root := logger
	logger = logger.With("component", "serve")
	if *pprofAddr != "" {
		// net/http/pprof registers on DefaultServeMux at init; the serving
		// mux is separate, so profiling stays off the public listener.
		go func() {
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof listener failed", "error", err)
			}
		}()
	}

	cfg := gsketch.Config{
		TotalBytes:    *totalBytes,
		Depth:         *depth,
		Seed:          *seed,
		MaxPartitions: *partitions,
	}

	if *tenantsOn {
		runTenants(logger, root, tenantFlags{
			addr:        *addr,
			wireAddr:    *wireAddr,
			dir:         *tenantDir,
			maxResident: *tenantMaxRes,
			maxRate:     *tenantMaxRate,
			burst:       *tenantBurst,
			sketch:      cfg,
			samplePath:  *samplePath,
			sampleCap:   *sampleCap,
			ingest:      gsketch.IngestConfig{Workers: *workers, BatchSize: *batchSize, QueueDepth: *queue},
			shutdown:    *shutdownTimeout,

			restore:    *restorePath != "",
			global:     *global,
			adapt:      *adaptOn,
			windowSpan: *windowSpan,
			cluster:    *clusterAddrs != "",
		})
		return
	}
	if *clusterAddrs != "" {
		runCoordinator(logger, root, coordinatorFlags{
			addr:           *addr,
			wireAddr:       *wireAddr,
			shards:         strings.Split(*clusterAddrs, ","),
			sketch:         cfg,
			samplePath:     *samplePath,
			workloadPath:   *workloadPath,
			sampleCap:      *sampleCap,
			batchEdges:     *clusterBatch,
			queueBatches:   *clusterQueue,
			pingInterval:   *clusterPing,
			snapshotPath:   *snapshotPath,
			snapshotOnExit: *snapshotOnExit,
			shutdown:       *shutdownTimeout,

			restore:    *restorePath != "",
			global:     *global,
			adapt:      *adaptOn,
			windowSpan: *windowSpan,
		})
		return
	}
	opts, err := engineOptions(cfg, bootstrapFlags{
		restorePath:  *restorePath,
		samplePath:   *samplePath,
		workloadPath: *workloadPath,
		global:       *global,
		sampleCap:    *sampleCap,
		adapt:        *adaptOn,
		adaptSample:  *adaptSample,
		adaptMaxGens: *adaptMaxGens,
		adaptDrift:   *adaptDrift,
		adaptOutlier: *adaptOutlier,
		seed:         *seed,
	})
	if err != nil {
		fatal(logger, "bootstrap failed", "error", err)
	}

	opts = append(opts,
		gsketch.WithIngest(gsketch.IngestConfig{Workers: *workers, BatchSize: *batchSize, QueueDepth: *queue}),
		gsketch.WithSnapshotFile(*snapshotPath),
	)
	if *workloadCap >= 0 {
		rcap := *workloadCap
		if rcap == 0 { // pre-Engine behavior: 0 falls through to the default
			rcap = 4096
		}
		opts = append(opts, gsketch.WithWorkloadRecorder(rcap, *seed))
	}
	if *windowSpan > 0 {
		opts = append(opts, gsketch.WithWindows(gsketch.WindowConfig{
			Span:       *windowSpan,
			SampleSize: *windowSample,
			Sketch:     cfg,
			Seed:       *seed,
		}))
	}
	if *adaptInterval > 0 {
		opts = append(opts, gsketch.WithAutoRepartition(*adaptInterval, func(err error) {
			logger.Warn("auto repartition failed", "error", err)
		}))
	}
	if *compactMaxGens > 0 || *compactAge > 0 || *compactMem > 0 || *compactFold > 0 {
		opts = append(opts, gsketch.WithCompaction(gsketch.CompactionPolicy{
			MaxGenerations: *compactMaxGens,
			MaxAge:         *compactAge,
			MaxMemoryBytes: *compactMem,
			Fold:           *compactFold,
			Interval:       *compactInterval,
		}, func(err error) {
			logger.Warn("background compaction failed", "error", err)
		}))
	}
	if *tierDir != "" {
		opts = append(opts, gsketch.WithTiering(*tierDir, *tierResident))
	}
	if *decayHalfLife > 0 {
		opts = append(opts, gsketch.WithDecay(*decayHalfLife))
	}

	eng, err := gsketch.Open(cfg, opts...)
	if err != nil {
		if errors.Is(err, gsketch.ErrNotAdaptive) {
			fatal(logger, "snapshot carries a generation chain; run with -adapt to serve it", "error", err)
		}
		fatal(logger, "engine open failed", "error", err)
	}
	st := eng.Stats()
	if g := eng.Sketch(); g != nil {
		logger.Info("engine up",
			"generations", eng.Generations(),
			"partitions", g.NumPartitions(),
			"order", fmt.Sprint(g.Order()),
			"stream_total", st.StreamTotal,
			"memory_bytes", st.MemoryBytes)
	} else {
		logger.Info("engine up (global baseline)",
			"stream_total", st.StreamTotal, "memory_bytes", st.MemoryBytes)
	}

	srv, err := server.New(server.Config{
		Engine:             eng,
		SnapshotOnShutdown: *snapshotOnExit,
		Logger:             root,
	})
	if err != nil {
		fatal(logger, "server init failed", "error", err)
	}

	serveUntilSignal(logger, srv, *addr, *wireAddr, *shutdownTimeout)
}

// serveUntilSignal runs the HTTP (and optional wire) listeners until
// SIGINT/SIGTERM, then drains through srv.Shutdown. Shared by the engine
// and coordinator paths.
func serveUntilSignal(logger *slog.Logger, srv *server.Server, addr, wireAddr string, shutdownTimeout time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 2)
	listeners := 1
	go func() { errc <- srv.ListenAndServe(addr) }()
	logger.Info("listening", "addr", addr)
	if wireAddr != "" {
		listeners++
		go func() { errc <- srv.ListenAndServeWire(wireAddr) }()
		logger.Info("wire protocol listening", "addr", wireAddr)
	}

	select {
	case <-ctx.Done():
		logger.Info("signal received, draining", "timeout", shutdownTimeout.String())
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fatal(logger, "shutdown failed", "error", err)
		}
		for i := 0; i < listeners; i++ {
			<-errc // both listeners return ErrServerClosed after Shutdown
		}
		logger.Info("drained, bye")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "listener failed", "error", err)
		}
	}
}

// tenantFlags is the -tenants slice of the flag set, plus the
// incompatible modes tenant mode must refuse.
type tenantFlags struct {
	addr, wireAddr string
	dir            string
	maxResident    int
	maxRate        float64
	burst          int
	sketch         gsketch.Config
	samplePath     string
	sampleCap      int
	ingest         gsketch.IngestConfig
	shutdown       time.Duration

	restore    bool
	global     bool
	adapt      bool
	windowSpan int64
	cluster    bool
}

// runTenants opens (or resumes) the tenant registry and serves the
// tenant-scoped surface until a signal.
func runTenants(logger, root *slog.Logger, f tenantFlags) {
	switch {
	case f.cluster:
		fatal(logger, "-tenants and -cluster are mutually exclusive; shard tenants behind a coordinator per tenant set instead")
	case f.restore:
		fatal(logger, "-tenants restores each tenant from its own snapshot directory; -restore is engine-only")
	case f.global:
		fatal(logger, "-tenants engines must snapshot for eviction; -global is engine-only")
	case f.adapt:
		fatal(logger, "-adapt is engine-only")
	case f.windowSpan != 0:
		fatal(logger, "-window-span is engine-only")
	}
	var sample []stream.Edge
	if f.samplePath != "" {
		var err error
		if sample, err = stream.ReadEdgeFile(f.samplePath, f.sampleCap); err != nil {
			fatal(logger, "sample read failed", "path", f.samplePath, "error", err)
		}
	}
	reg, err := tenant.New(tenant.Config{
		Dir:         f.dir,
		MaxResident: f.maxResident,
		Sketch:      f.sketch,
		Sample:      sample,
		Ingest:      f.ingest,
		Quotas:      tenant.Quotas{MaxEdgesPerSec: f.maxRate, Burst: f.burst},
	})
	if err != nil {
		fatal(logger, "tenant registry open failed", "dir", f.dir, "error", err)
	}
	logger.Info("tenant registry up",
		"dir", f.dir,
		"tenants", reg.RegistryStats().Tenants,
		"max_resident", f.maxResident)

	srv, err := server.New(server.Config{Tenants: reg, Logger: root})
	if err != nil {
		fatal(logger, "server init failed", "error", err)
	}
	serveUntilSignal(logger, srv, f.addr, f.wireAddr, f.shutdown)
}

// coordinatorFlags is the -cluster slice of the flag set, plus the
// engine-only flags coordinator mode must refuse.
type coordinatorFlags struct {
	addr, wireAddr string
	shards         []string
	sketch         gsketch.Config
	samplePath     string
	workloadPath   string
	sampleCap      int
	batchEdges     int
	queueBatches   int
	pingInterval   time.Duration
	snapshotPath   string
	snapshotOnExit bool
	shutdown       time.Duration

	restore    bool
	global     bool
	adapt      bool
	windowSpan int64
}

// runCoordinator builds the routing gSketch from the sample, connects the
// scatter-gather coordinator to every shard and serves until a signal.
func runCoordinator(logger, root *slog.Logger, f coordinatorFlags) {
	switch {
	case f.restore:
		fatal(logger, "-cluster routes to shards that restore their own snapshots; -restore is engine-only")
	case f.global:
		fatal(logger, "-cluster needs the partitioned router; -global is engine-only")
	case f.adapt:
		fatal(logger, "-adapt is engine-only (shards repartition, the coordinator's routing is static)")
	case f.windowSpan != 0:
		fatal(logger, "-window-span is engine-only")
	case f.samplePath == "":
		fatal(logger, "-cluster needs -sample to build the vertex router")
	}

	sample, err := stream.ReadEdgeFile(f.samplePath, f.sampleCap)
	if err != nil {
		fatal(logger, "sample read failed", "path", f.samplePath, "error", err)
	}
	var workload []stream.Edge
	if f.workloadPath != "" {
		if workload, err = stream.ReadEdgeFile(f.workloadPath, 0); err != nil {
			fatal(logger, "workload read failed", "path", f.workloadPath, "error", err)
		}
	}
	// The router is a zero-traffic gSketch: only its partitioning (the
	// vertex → partition map) is used, so every shard must be built from
	// the same sample, config and seed to agree with it.
	router, err := core.BuildGSketch(f.sketch, sample, workload)
	if err != nil {
		fatal(logger, "router build failed", "error", err)
	}

	coord, err := cluster.New(cluster.Config{
		Addrs:        f.shards,
		Router:       router,
		BatchEdges:   f.batchEdges,
		QueueBatches: f.queueBatches,
		PingInterval: f.pingInterval,
		SnapshotPath: f.snapshotPath,
		Logger:       root,
	})
	if err != nil {
		fatal(logger, "cluster connect failed", "error", err)
	}
	logger.Info("coordinator up",
		"shards", coord.NumShards(),
		"partitions", router.NumPartitions(),
		"order", fmt.Sprint(router.Order()))

	srv, err := server.New(server.Config{
		Cluster:            coord,
		SnapshotOnShutdown: f.snapshotOnExit,
		Logger:             root,
	})
	if err != nil {
		fatal(logger, "server init failed", "error", err)
	}
	serveUntilSignal(logger, srv, f.addr, f.wireAddr, f.shutdown)
}

// bootstrapFlags is the bootstrap slice of the flag set.
type bootstrapFlags struct {
	restorePath, samplePath, workloadPath string
	global                                bool
	sampleCap                             int
	adapt                                 bool
	adaptSample, adaptMaxGens             int
	adaptDrift, adaptOutlier              float64
	seed                                  uint64
}

// engineOptions resolves exactly one bootstrap source (plus the adaptive
// wiring) into gsketch.Open options.
func engineOptions(cfg gsketch.Config, f bootstrapFlags) ([]gsketch.Option, error) {
	set := 0
	for _, on := range []bool{f.restorePath != "", f.samplePath != "", f.global} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("pick exactly one of -restore, -sample or -global")
	}

	var opts []gsketch.Option
	var workload []stream.Edge

	switch {
	case f.restorePath != "":
		opts = append(opts, gsketch.WithRestoreFile(f.restorePath))
	case f.global:
		if f.adapt {
			return nil, errors.New("-adapt needs a partitioned gSketch; it is incompatible with -global")
		}
		opts = append(opts, gsketch.WithGlobal())
	default:
		// The engine reads the sample file itself, twice, and never holds
		// it: what peaks at start-up is the statistics, not the sample.
		opts = append(opts, gsketch.WithSampleFile(f.samplePath, f.sampleCap))
		if f.workloadPath != "" {
			var err error
			workload, err = stream.ReadEdgeFile(f.workloadPath, 0)
			if err != nil {
				return nil, fmt.Errorf("workload %s: %w", f.workloadPath, err)
			}
		}
		if workload != nil {
			opts = append(opts, gsketch.WithWorkloadSample(workload))
		}
	}

	if f.adapt {
		opts = append(opts, gsketch.WithAdaptive(
			gsketch.ChainConfig{
				SampleSize:     f.adaptSample,
				Seed:           f.seed,
				MaxGenerations: f.adaptMaxGens,
			},
			gsketch.AdaptConfig{
				Sketch:           cfg,
				DriftThreshold:   f.adaptDrift,
				OutlierThreshold: f.adaptOutlier,
				Baseline:         workload,
			},
		))
	}
	return opts, nil
}
