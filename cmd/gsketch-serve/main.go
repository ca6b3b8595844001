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
// cmd/gsketch-wire or any client speaking the frame format. Wire frames
// travel over TCP only; the HTTP endpoints take NDJSON and JSON. A wire
// connection folds its own ingest frames behind their acks, on one core
// per connection: open more connections for more throughput. -workers,
// -batch and -queue shape the queue that HTTP ingest goes through and do
// not apply to wire connections.
//
// With -adapt the engine serves a generation chain: POST /repartition (or
// the -adapt-interval auto-trigger, when drift crosses -adapt-drift /
// -adapt-outlier) rebuilds the partitioning from the live data reservoir
// and the recorded query workload and hot-swaps it in as a new generation;
// queries keep answering over the whole stream with combined bounds, and
// snapshots carry the full chain.
//
// With -window-span the generations are instead the §5 time windows of
// that span: an edge from a later window starts it, partitioned from a
// reservoir sample of the window before, and POST /query/window answers
// time ranges by weighting each window by its overlap. -window-span
// excludes -adapt and the lifecycle flags. /query/window sees what /query
// sees, the edges the pipeline has applied, so ingest with ?sync=1 before
// reading your writes. Windowed engines snapshot and restore like chains.
//
// Every engine serves a generation chain: without -adapt it is static, one
// generation or the ones a restored snapshot carries. The adaptive chain's
// lifecycle is managed with the compaction and tiering flags (both require
// -adapt). -compact-max-gens / -compact-age / -compact-mem set the
// background fold triggers (checked every -compact-interval; -compact-fold
// generations fold per pass, and the repartition manager also folds on
// demand before a rotation that would hit -adapt-max-gens, so the cap
// refuses only generations that cannot fold, restored ones of differing
// layouts). -tier-dir spills cold frozen generations to disk past
// -tier-resident resident ones, reloading them lazily on query. POST
// /compact folds on demand.
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
// -tenant). Engine-only flags (-restore, -global, -adapt, -window-span)
// are refused; -sample optionally seeds every tenant's partitioning, and
// without it a tenant serves the Global Sketch.
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
	"net"
	"net/http"
	_ "net/http/pprof" // handlers mounted on the -pprof-addr listener only
	"os"
	"os/signal"
	"syscall"
	"time"

	gsketch "github.com/graphstream/gsketch"
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
		global       = flag.Bool("global", false, "bootstrap the unpartitioned Global Sketch baseline")
		sampleCap    = flag.Int("sample-cap", 1<<16, "max edges of -sample read and used for partitioning (0 = all)")

		totalBytes = flag.Int("bytes", 4<<20, "counter memory budget in bytes")
		depth      = flag.Int("depth", 0, "sketch depth d (0 = default)")
		seed       = flag.Uint64("seed", 42, "hash-family seed")
		partitions = flag.Int("partitions", 0, "partition cap (0 = unbounded)")

		workers   = flag.Int("workers", 0, "HTTP ingest workers (0 = GOMAXPROCS); wire connections fold their own frames")
		batchSize = flag.Int("batch", 0, "max edges per queued HTTP batch (0 = default 1024)")
		queue     = flag.Int("queue", 0, "HTTP ingest queue depth in batches (0 = 4x workers)")

		snapshotPath   = flag.String("snapshot", "gsketch.snap", "default snapshot path for /snapshot/save and -snapshot-on-exit")
		snapshotOnExit = flag.Bool("snapshot-on-exit", false, "save a final snapshot to -snapshot, which must be set, during graceful shutdown")

		workloadCap  = flag.Int("workload-cap", 4096, "query-workload reservoir capacity (negative disables capture)")
		windowSpan   = flag.Int64("window-span", 0, "make the generations time windows of this span (0 = disabled; excludes -adapt)")
		windowSample = flag.Int("window-sample", 1024, "reservoir size feeding each window's partitioning (with -window-span)")

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

		tenantsOn     = flag.Bool("tenants", false, "serve a multi-tenant registry: data path under /t/{tenant}/..., admin API at /t")
		tenantDir     = flag.String("tenant-dir", "tenants", "tenant registry root: manifest plus one snapshot dir per tenant (with -tenants)")
		tenantMaxRes  = flag.Int("tenant-max-resident", 0, "max tenants with a live engine; LRU-evict to disk past it (0 = unlimited)")
		tenantMaxRate = flag.Float64("tenant-max-edges-per-sec", 0, "default per-tenant ingest rate cap (0 = unlimited)")
		tenantBurst   = flag.Int("tenant-burst", 0, "default per-tenant token-bucket burst (0 = one second of rate)")

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
	// root stays untagged: the server attaches its own component attrs;
	// main's own lines carry component=serve.
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
	if *snapshotOnExit {
		opts = append(opts, gsketch.WithSnapshotOnClose())
	}
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

	eng, err := gsketch.Open(cfg, opts...)
	if err != nil {
		fatal(logger, "engine open failed", "error", err)
	}
	st, g := eng.Stats(), eng.Sketch()
	logger.Info("engine up",
		"generations", eng.Generations(),
		"partitions", g.NumPartitions(),
		"order", fmt.Sprint(g.Order()),
		"stream_total", st.StreamTotal,
		"memory_bytes", st.MemoryBytes)

	srv, err := server.New(server.Config{Engine: eng, Logger: root})
	if err != nil {
		fatal(logger, "server init failed", "error", err)
	}

	serveUntilSignal(logger, srv, *addr, *wireAddr, *shutdownTimeout)
}

// serveUntilSignal runs the HTTP (and optional wire) listeners until
// SIGINT/SIGTERM, then drains through srv.Shutdown. Shared by the engine
// and tenant paths.
func serveUntilSignal(logger *slog.Logger, srv *server.Server, addr, wireAddr string, shutdownTimeout time.Duration) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both addresses are bound before either is served, so that a /readyz
	// answered over HTTP means the wire listener accepts too.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", addr, "error", err)
	}
	var wln net.Listener
	if wireAddr != "" {
		if wln, err = net.Listen("tcp", wireAddr); err != nil {
			fatal(logger, "listen failed", "addr", wireAddr, "error", err)
		}
	}
	errc := make(chan error, 2)
	listeners := 1
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening", "addr", addr)
	if wln != nil {
		listeners++
		go func() { errc <- srv.ServeWire(wln) }()
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
}

// runTenants opens (or resumes) the tenant registry and serves the
// tenant-scoped surface until a signal.
func runTenants(logger, root *slog.Logger, f tenantFlags) {
	switch {
	case f.restore:
		fatal(logger, "-tenants restores each tenant from its own snapshot directory; -restore is engine-only")
	case f.global:
		fatal(logger, "-global is engine-only")
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
