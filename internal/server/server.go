// Package server is the HTTP serving subsystem: a thin frontend over
// gsketch.Engine — the one-handle facade owning the estimator, the batch
// ingest pipeline, snapshot persistence, live workload capture and
// adaptive repartitioning. The server contributes the wire protocol,
// request hygiene, HTTP error mapping and request counters; every stateful
// concern lives in the engine.
//
// Endpoints:
//
//	POST /ingest           NDJSON edge batch; 429 + typed JSON when the
//	                       pipeline sheds load (queue full)
//	POST /query            batched edge queries; estimates + error bounds +
//	                       confidence from the bound-carrying read path
//	POST /query/window     batched time-range queries (when the engine's
//	                       generations are windows)
//	GET  /snapshot         stream the current sketch state (consistent
//	                       striped-read-lock snapshot)
//	POST /snapshot/save    persist a snapshot to disk (atomic rename)
//	POST /snapshot/restore swap in a snapshot from disk or request body
//	GET  /workload         the recorded query-workload sample, in the text
//	                       edge format BuildGSketch accepts
//	POST /repartition      rebuild the partitioning from live samples and
//	                       hot-swap it in as a new sketch generation (when
//	                       the engine is adaptive)
//	GET  /healthz          liveness (alive and not shutting down)
//	GET  /readyz           readiness: 503 during snapshot restores and
//	                       repartition swaps
//	GET  /metrics          Prometheus text exposition: request counters,
//	                       per-route and wire-frame latency histograms,
//	                       engine/tenant gauges
//	GET  /stats            JSON counters + live engine gauges (the same
//	                       counters and gauge rows /metrics renders)
//
// The server is embeddable: New + Handler slot into any http.Server or
// test harness; Serve/ServeWire + Shutdown run it standalone.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/tenant"
)

// Config parameterizes a Server. Exactly one of Engine and Tenants names
// the backend.
type Config struct {
	// Engine is the serving engine, constructed with gsketch.Open.
	Engine *gsketch.Engine

	// Tenants serves a multi-tenant registry instead of a single backend:
	// the data path moves under /t/{tenant}/... (plus the wire protocol's
	// tenant-select frame) and the admin API (PUT|DELETE|GET /t/{tenant},
	// GET /t) mounts beside it. The server owns the registry lifecycle:
	// Shutdown snapshots every resident tenant and closes it.
	Tenants *tenant.Registry

	// Logger receives the server's structured lifecycle events (slog).
	// Nil discards them; gsketch-serve passes its -log-level/-log-format
	// configured logger.
	Logger *slog.Logger

	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// FlushTimeout bounds the wait of sync requests (?sync=1 ingests and
	// {"sync":true} queries) on the pipeline drain, which under sustained
	// ingest traffic may not quiesce (default 30s).
	FlushTimeout time.Duration
	// Now overrides the clock, for tests.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Server is the serving runtime. Create with New; all exported methods are
// safe for concurrent use.
type Server struct {
	cfg Config
	// be is the serving surface shared by every endpoint, and eng the
	// engine behind it; both are nil in tenant mode, where each request
	// resolves its tenant's handle.
	be      Backend
	eng     *gsketch.Engine
	tenants *tenant.Registry
	mux     *http.ServeMux
	stats   *counters
	gauges  []gauge // the gauge table rows this server's backend serves
	metrics *serverMetrics
	log     *slog.Logger

	// notReady counts in-flight state swaps (snapshot restores,
	// repartitions): /readyz answers 503 while it is non-zero, so a load
	// balancer routes around the latency cliff of a swap in progress.
	notReady atomic.Int32

	// lastSnap is the time, on the server's clock (Config.Now), of the
	// engine's last snapshot save or restore through the server, in unix
	// nanos; 0 before the first. Stamped here rather than read from the
	// engine, so snapshot_age_seconds subtracts two times of one clock.
	lastSnap atomic.Int64

	// httpSrv is created in New (not lazily in Serve) so a Shutdown racing
	// startup still stops the listener: http.Server.Shutdown before Serve
	// makes the later Serve return ErrServerClosed immediately.
	httpSrv *http.Server

	// Wire-protocol listeners and connections (ServeWire), closed during
	// Shutdown.
	wireMu    sync.Mutex
	wireLns   map[net.Listener]struct{}
	wireConns map[net.Conn]struct{}
	wireWg    sync.WaitGroup

	start     time.Time
	closing   atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// New builds a server around its one backend: an engine or a tenant
// registry. The server owns the backend's
// lifecycle: Shutdown stops the adaptive loop, drains the pipeline and
// optionally persists a final snapshot. Callers must not push to the
// estimator directly while the server runs.
func New(cfg Config) (*Server, error) {
	if (cfg.Engine == nil) == (cfg.Tenants == nil) {
		return nil, errors.New("server: set exactly one of Config.Engine or Config.Tenants")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		log:       cfg.Logger.With("component", "server"),
		start:     cfg.Now(),
		wireLns:   make(map[net.Listener]struct{}),
		wireConns: make(map[net.Conn]struct{}),
	}
	s.metrics = newServerMetrics()
	s.stats = newCounters(s.metrics.reg)
	switch {
	case cfg.Tenants != nil:
		// No process-wide backend: every request resolves its tenant's
		// handle (s.backend), and wire connections bind one per session.
		s.tenants = cfg.Tenants
		s.gauges = slices.Concat(serverGauges, tenantGauges)
		s.registerTenantMetrics(cfg.Tenants)
	default:
		s.eng = cfg.Engine
		s.be = engineBackend{eng: cfg.Engine}
		s.gauges = slices.Concat(serverGauges, engineGauges)
		// The engine's observer hooks feed the swap- and compact-duration
		// histograms, for manual requests and background loops alike.
		s.eng.SetSwapObserver(s.metrics.swap.ObserveDuration)
		s.eng.SetCompactObserver(s.metrics.compact.ObserveDuration)
	}
	s.registerGauges()
	s.mux = s.routes()
	s.httpSrv = &http.Server{
		Handler: s.mux,
		// Slow-loris hygiene; response writes stay unbounded because
		// /snapshot streams an arbitrarily large sketch.
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s, nil
}

// Engine returns the serving engine, for embedders that want the
// programmatic surface next to the HTTP one. It is nil in tenant mode.
func (s *Server) Engine() *gsketch.Engine { return s.eng }

// Handler returns the server's HTTP handler, for embedding in an existing
// http.Server or test harness.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry — the source of
// GET /metrics — for embedders that want to add their own instruments
// or mount the exposition handler elsewhere.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// ready reports why the server cannot take traffic right now, or nil
// when it can — the /readyz condition. Liveness (/healthz) only checks
// the process is up and not shutting down; readiness additionally
// fails during state swaps.
func (s *Server) ready() error {
	if s.closing.Load() {
		return errors.New("shutting down")
	}
	if s.notReady.Load() > 0 {
		return errors.New("state swap in progress")
	}
	return nil
}

// beginSwap marks a state swap (snapshot restore, repartition) in
// flight for /readyz; the returned func ends it.
func (s *Server) beginSwap() func() {
	s.notReady.Add(1)
	return func() { s.notReady.Add(-1) }
}

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a graceful shutdown, like net/http.
func (s *Server) Serve(ln net.Listener) error {
	return s.httpSrv.Serve(ln)
}

// Shutdown drains and stops the server gracefully: mark unhealthy, stop
// the listener (waiting for in-flight handlers), and close the engine —
// which stops its lifecycle goroutine first, so no rebuild can race what
// follows, then drains the ingest queue and, when it was opened
// WithSnapshotOnClose, persists a final snapshot. Safe to call multiple
// times; later calls return the first result.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		s.closing.Store(true)
		s.log.Info("shutdown started")
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			s.closeErr = err
			// Fall through: the engine still drains below.
		}
		// Wire connections are long-lived streams with no request
		// boundary to wait for: stop the listeners and cut the
		// connections. Edges already accepted by the pipeline drain in
		// the backend Close below.
		s.closeWire()
		if s.tenants != nil {
			// Registry close snapshots every resident tenant to its own
			// directory.
			if err := s.tenants.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		} else {
			// Close drains the pipeline, then saves the final snapshot of
			// an engine opened WithSnapshotOnClose.
			if err := s.eng.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.closeErr != nil {
			s.log.Error("shutdown finished", "error", s.closeErr)
		} else {
			s.log.Info("shutdown finished")
		}
	})
	return s.closeErr
}

// Close is Shutdown without a deadline.
func (s *Server) Close() error { return s.Shutdown(context.Background()) }

// writeJSON writes v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorJSON is the error envelope of every non-2xx JSON reply: a human
// message plus a stable machine code, uniform across all handlers
// (including 404s from unknown tenants and routes).
type errorJSON struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// codeSlug maps an HTTP status to the default machine code of its error
// body. Handlers with a more specific cause use writeErrorCode instead.
func codeSlug(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusNotImplemented:
		return "not_implemented"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeErrorCode(w, status, codeSlug(status), format, args...)
}

// writeErrorCode is writeError with an explicit machine code, for
// statuses whose default slug is too coarse ("tenant_not_found" vs a
// route-level "not_found", say).
func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...), Code: code})
}
