package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
)

// routes builds the method-routed mux (Go 1.22 pattern syntax). Every
// handler is wrapped with a per-route latency histogram; the histogram
// child is resolved here, once, so the per-request cost is two clock
// reads and an atomic bucket add.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		hist := s.metrics.routeHistogram(pattern)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			h(w, r)
			hist.ObserveSince(start)
		})
	}
	handle("GET /healthz", s.handleHealthz)
	handle("GET /readyz", s.handleReadyz)
	handle("GET /stats", s.handleStats)
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	if s.tenants != nil {
		// Multi-tenant mode: the data path is tenant-scoped (the handlers
		// are the same functions — s.backend resolves the {tenant} wildcard
		// into a Backend per request) and the admin API mounts beside it.
		handle("POST /t/{tenant}/ingest", s.handleIngest)
		handle("POST /t/{tenant}/query", s.handleQuery)
		handle("POST /t/{tenant}/snapshot/save", s.handleSnapshotSave)
		handle("POST /t/{tenant}/snapshot/restore", s.handleSnapshotRestore)
		handle("PUT /t/{tenant}", s.handleTenantPut)
		handle("DELETE /t/{tenant}", s.handleTenantDelete)
		handle("GET /t/{tenant}", s.handleTenantGet)
		handle("GET /t", s.handleTenantList)
	} else {
		handle("POST /ingest", s.handleIngest)
		handle("POST /query", s.handleQuery)
		handle("GET /snapshot", s.handleSnapshotGet)
		handle("POST /snapshot/save", s.handleSnapshotSave)
		handle("POST /snapshot/restore", s.handleSnapshotRestore)
	}
	// Engine-only surfaces; a tenant registry (s.eng == nil) serves the
	// shared endpoints above, tenant-scoped.
	if s.eng != nil && s.eng.RecordsWorkload() {
		handle("GET /workload", s.handleWorkload)
	}
	if s.eng != nil && s.eng.HasWindow() {
		handle("POST /query/window", s.handleWindowQuery)
	}
	if s.eng != nil && s.eng.Adaptive() {
		handle("POST /repartition", s.handleRepartition)
		handle("POST /compact", s.handleCompact)
	}
	// Unmatched routes get the same JSON error envelope as every other
	// failure, not net/http's text 404. The catch-all also absorbs the
	// mux's method-mismatch handling, so it re-probes the route table
	// with the other methods to keep those replies 405 (with Allow).
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		var allowed []string
		for _, m := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete} {
			if m == r.Method {
				continue
			}
			probe := r.Clone(r.Context())
			probe.Method = m
			if _, pattern := mux.Handler(probe); pattern != "" && pattern != "/" {
				allowed = append(allowed, m)
			}
		}
		if len(allowed) > 0 {
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			writeError(w, http.StatusMethodNotAllowed, "method %s not allowed for %s", r.Method, r.URL.Path)
			return
		}
		writeError(w, http.StatusNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
	return mux
}

// backend resolves the request's serving surface: the process-wide
// backend, or — in tenant mode — the {tenant} wildcard's handle. It
// writes the 404 itself when the tenant does not exist.
func (s *Server) backend(w http.ResponseWriter, r *http.Request) (Backend, bool) {
	if s.tenants == nil {
		return s.be, true
	}
	name := r.PathValue("tenant")
	h, err := s.tenants.Tenant(name)
	if err != nil {
		s.writeTenantError(w, name, err)
		return nil, false
	}
	return h, true
}

// writeTenantError maps tenant registry errors onto HTTP statuses.
func (s *Server) writeTenantError(w http.ResponseWriter, name string, err error) {
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		writeErrorCode(w, http.StatusNotFound, "tenant_not_found", "tenant %q not found", name)
	case errors.Is(err, tenant.ErrBadName), errors.Is(err, tenant.ErrBadOverrides):
		writeError(w, http.StatusBadRequest, "tenant: %v", err)
	case errors.Is(err, tenant.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "tenant: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "tenant: %v", err)
	}
}

// handleRepartition rebuilds the partitioning from the engine's live data
// reservoir and the recorded query workload, and hot-swaps the result in as
// a new sketch generation — the on-demand end of the record → rebuild →
// swap loop (the auto-trigger end is the engine's WithAutoRepartition).
func (s *Server) handleRepartition(w http.ResponseWriter, r *http.Request) {
	s.stats.repartitionRequests.Add(1)
	done := s.beginSwap()
	res, err := s.eng.Repartition()
	done()
	if err != nil {
		// Both 409s are client-retriable states, not server faults: the
		// generation cap needs an operator decision (compact, or mount a
		// compaction policy), an empty reservoir just needs more stream
		// before the next attempt. The machine-readable code tells the two
		// apart without string-matching the message.
		switch {
		case errors.Is(err, gsketch.ErrMaxGenerations):
			writeErrorCode(w, http.StatusConflict, "max_generations", "repartition: %v", err)
		case errors.Is(err, gsketch.ErrEmptyReservoir):
			writeErrorCode(w, http.StatusConflict, "empty_reservoir", "repartition: %v", err)
		default:
			writeError(w, http.StatusInternalServerError, "repartition: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generations": res.Generations,
		"partitions":  res.Partitions,
		"build_ms":    float64(res.BuildDuration.Microseconds()) / 1e3,
		"drift":       res.Before,
	})
}

// handleCompact folds the oldest frozen generations of the serving chain
// into one, on demand — the manual end of the generation-lifecycle loop
// (the policy end is the engine's WithCompaction). A chain with fewer than
// two frozen generations answers 200 with folded=0: nothing to do is not
// an error an operator script should have to special-case.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	s.stats.compactRequests.Add(1)
	res, err := s.eng.Compact()
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, gsketch.ErrEngineClosed) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "compact: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"folded":      res.Folded,
		"exact":       res.Exact,
		"generations": res.Generations,
		"freed_bytes": res.FreedBytes,
		"duration_ms": float64(res.Duration.Microseconds()) / 1e3,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.closing.Load() {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness half of the health split: alive is not
// the same as able to take traffic. 503s here tell a load balancer to
// route around a state swap in progress, while
// /healthz keeps reporting the process alive (no restart needed).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if err := s.ready(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "not ready: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleIngest accepts an NDJSON edge batch and hands it to the engine
// without ever blocking the handler on a full queue: backpressure becomes
// HTTP 429 with the accepted prefix length, so clients retry only what was
// shed. ?sync=1 additionally drains before replying (read-your-writes).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.stats.ingestRequests.Add(1)
	be, ok := s.backend(w, r)
	if !ok {
		return
	}
	drain, err := syncParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "ingest: %v", err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	buf := getEdgeBuf()
	defer putEdgeBuf(buf)
	edges, err := decodeEdgesNDJSON(body, *buf)
	*buf = edges[:0]
	if err != nil {
		writeError(w, bodyErrorStatus(err), "ingest: %v", err)
		return
	}
	// TryIngest holds the engine's state read lock across the push, so a
	// concurrent snapshot restore cannot swap the pipeline between the ack
	// and the enqueue — every 200-acked edge lands in the engine state
	// that serves subsequent queries.
	accepted, err := be.TryIngest(edges)
	s.stats.edgesAccepted.Add(int64(accepted))
	rejected := len(edges) - accepted
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		// The tenant was deleted between route resolution and the push.
		writeErrorCode(w, http.StatusNotFound, "tenant_not_found", "ingest: %v", err)
		return
	case errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
		// The accepted prefix (if any) was still taken by the pipeline;
		// report it so a retrying client does not double-send it.
		writeJSON(w, http.StatusServiceUnavailable, ingestResponse{
			Accepted: accepted,
			Rejected: rejected,
			Error:    "ingest pipeline closed",
			Code:     "unavailable",
		})
		return
	case errors.Is(err, tenant.ErrRateLimited):
		// The tenant's own quota, not server pressure — same 429 +
		// accepted-prefix contract, distinct machine code.
		s.stats.edgesRejected.Add(int64(rejected))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ingestResponse{
			Accepted: accepted,
			Rejected: rejected,
			Error:    err.Error(),
			Code:     "rate_limited",
		})
		return
	case errors.Is(err, gsketch.ErrIngestQueueFull):
		s.stats.edgesRejected.Add(int64(rejected))
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ingestResponse{
			Accepted: accepted,
			Rejected: rejected,
			Error:    "ingest queue full",
			Code:     "too_many_requests",
		})
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "ingest: %v", err)
		return
	}
	if drain {
		if err := s.drainBounded(r, be); err != nil {
			writeError(w, http.StatusServiceUnavailable, "ingest: flush: %v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, ingestResponse{Accepted: accepted})
}

// syncParam reads a data-plane request's ?sync= parameter: whether to
// drain the ingest pipeline before replying. Absent or empty is false;
// otherwise the value is strconv.ParseBool's, and one it cannot read is
// an error naming the parameter, for a 400.
func syncParam(r *http.Request) (bool, error) {
	v := r.URL.Query().Get("sync")
	if v == "" {
		return false, nil
	}
	drain, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("sync=%q is not a boolean", v)
	}
	return drain, nil
}

// bodyErrorStatus is the status of a request whose body could not be read
// or parsed: 413 when it ran past MaxBodyBytes, 400 otherwise.
func bodyErrorStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// drainBounded drains the engine pipeline with a deadline: the drain
// condition is global, and under sustained ingest traffic it may not
// quiesce — a handler must not hang on it indefinitely.
func (s *Server) drainBounded(r *http.Request, be Backend) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.FlushTimeout)
	defer cancel()
	err := be.Drain(ctx)
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return errors.New("drain did not quiesce: " + err.Error())
	}
	if errors.Is(err, gsketch.ErrEngineClosed) || errors.Is(err, tenant.ErrClosed) {
		return nil
	}
	return err
}

// writeQueryError maps backend query failures: a deleted tenant 404, a
// closed backend 503, anything else 500.
func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		// Tenant deleted between route resolution and the read.
		writeErrorCode(w, http.StatusNotFound, "tenant_not_found", "query: %v", err)
		return
	case errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeError(w, code, "query: %v", err)
}

// handleQuery answers a batch of edge queries with the bound-carrying
// batched read path; the engine records the batch into the workload
// reservoir. One pooled buffer holds the request body and then, once the
// queries are out of it, the reply.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.queryRequests.Add(1)
	be, ok := s.backend(w, r)
	if !ok {
		return
	}
	buf := getFrameBuf()
	defer putFrameBuf(buf)
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), *buf)
	*buf = body
	if err != nil {
		writeError(w, bodyErrorStatus(err), "query: %v", err)
		return
	}
	qbuf := getQueryBuf()
	defer putQueryBuf(qbuf)
	qs, sync, err := decodeQueryBody(body, *qbuf)
	*qbuf = qs
	if err != nil {
		writeError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	if len(qs) == 0 {
		writeError(w, http.StatusBadRequest, "query: empty batch")
		return
	}
	if sync {
		if err := s.drainBounded(r, be); err != nil {
			writeError(w, http.StatusServiceUnavailable, "query: flush: %v", err)
			return
		}
	}
	rbuf := getResultBuf()
	defer putResultBuf(rbuf)
	results, err := be.AppendQueryBatch(*rbuf, qs)
	*rbuf = results
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	s.stats.queriesAnswered.Add(int64(len(results)))
	reply, ok := appendQueryReply(body[:0], qs, results)
	if !ok {
		// A float that is not finite: encoding/json's answer, as ever.
		writeJSON(w, http.StatusOK, newQueryResponse(qs, results))
		return
	}
	*buf = reply
	// With the length known net/http sends the reply whole; without it, a
	// reply longer than its 2 KiB buffer goes out chunked.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(reply)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(reply)
}

// handleWindowQuery answers a time-range batch over the engine's windows.
func (s *Server) handleWindowQuery(w http.ResponseWriter, r *http.Request) {
	s.stats.windowQueries.Add(1)
	var req windowQueryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, bodyErrorStatus(err), "window query: %v", err)
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "window query: empty batch")
		return
	}
	qbuf := getQueryBuf()
	defer putQueryBuf(qbuf)
	qs := appendEdgeQueries(*qbuf, req.Queries)
	*qbuf = qs[:0]
	values, err := s.eng.QueryWindow(qs, req.T1, req.T2)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "window query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, windowQueryResponse{Values: values})
}

// handleSnapshotGet streams the serialized sketch, snapshotted under the
// striped read locks, directly to the client.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	// Write through a counter so an error before the first byte (an
	// estimator without a serial form, say) can still become a clean 500
	// instead of a 200 with an empty body the client mistakes for a
	// snapshot.
	w.Header().Set("Content-Type", "application/octet-stream")
	cw := &stream.CountingWriter{W: w}
	if _, err := s.eng.Save(cw); err != nil {
		if cw.N == 0 {
			// Headers not sent yet: writeError still owns the status line.
			writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
			return
		}
		// Mid-stream failure: the 200 header is gone; abort the connection
		// so the client sees a truncated transfer rather than a silent
		// success.
		panic(http.ErrAbortHandler)
	}
}

// handleSnapshotSave persists a snapshot to disk. The target path comes
// from the JSON body or falls back to the engine's configured path.
func (s *Server) handleSnapshotSave(w http.ResponseWriter, r *http.Request) {
	be, ok := s.backend(w, r)
	if !ok {
		return
	}
	path, ok := s.snapshotPath(w, r, be)
	if !ok {
		return
	}
	n, err := be.SaveSnapshot(path)
	if err != nil {
		writeSnapshotError(w, "snapshot save", err)
		return
	}
	s.stats.snapshotsSaved.Add(1)
	s.stampSnapshot()
	writeJSON(w, http.StatusOK, map[string]any{"path": path, "bytes": n})
}

// stampSnapshot records a completed save or restore of the engine for
// snapshot_age_seconds; a tenant's has no gauge to feed.
func (s *Server) stampSnapshot() {
	if s.eng != nil {
		s.lastSnap.Store(s.cfg.Now().UnixNano())
	}
}

// handleSnapshotRestore swaps a backend's state for a snapshot, read from
// a path on disk or, for an engine only, from the raw request body
// (Content-Type: application/octet-stream). Tenant snapshots live under
// the registry tree, and snapshotPath confines a request's path to the
// tenant's own directory. The backend owns the swap semantics: every
// engine serves any snapshot as its chain, an adaptive one rebinding its
// manager and a windowed one taking the generations as its windows.
func (s *Server) handleSnapshotRestore(w http.ResponseWriter, r *http.Request) {
	raw := strings.HasPrefix(r.Header.Get("Content-Type"), "application/octet-stream")
	if raw && s.eng == nil {
		writeError(w, http.StatusNotImplemented, "snapshot restore: raw snapshot bodies are unsupported in tenant mode (pass {\"path\": ...})")
		return
	}
	be, ok := s.backend(w, r)
	if !ok {
		return
	}
	from := "request body"
	restore := func() error { return s.eng.Restore(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)) }
	if !raw {
		path, ok := s.snapshotPath(w, r, be)
		if !ok {
			return
		}
		if _, err := os.Stat(path); err != nil {
			writeError(w, http.StatusNotFound, "snapshot restore: %v", err)
			return
		}
		from = path
		restore = func() error { return be.RestoreSnapshot(path) }
	}
	// Only an engine's restore takes the server out of /readyz: a tenant's
	// leaves every other tenant serving.
	done := func() {}
	if s.eng != nil {
		done = s.beginSwap()
	}
	err := restore()
	done()
	if err != nil {
		writeSnapshotError(w, "snapshot restore from "+from, err)
		return
	}
	s.stats.snapshotsRestored.Add(1)
	s.stampSnapshot()
	total, _, gens := be.Health()
	reply := map[string]any{"restored": from, "generations": gens, "stream_total": total}
	if s.eng != nil {
		// Localized-sketch partitions, not the shard count: the two differ
		// by the outlier shard.
		reply["partitions"] = s.eng.Sketch().NumPartitions()
	}
	writeJSON(w, http.StatusOK, reply)
}

// writeSnapshotError maps a failed snapshot save or restore onto its
// status. An error with no sentinel is a server fault: a restore can fail
// after its swap took effect (a displaced pipeline that would not drain,
// say), and a 4xx would invite a blind retry.
func writeSnapshotError(w http.ResponseWriter, op string, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, gsketch.ErrBadSnapshot):
		status = http.StatusBadRequest
	case errors.Is(err, tenant.ErrNotFound):
		writeErrorCode(w, http.StatusNotFound, "tenant_not_found", "%s: %v", op, err)
		return
	case errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%s: %v", op, err)
}

// snapshotPath resolves the snapshot path from the request body or the
// engine default, writing the error reply itself when none is usable. A
// request-supplied path is confined to the directory of the engine's
// snapshot path: without the restriction, any HTTP client could write
// (save clobbers via rename) or probe (restore opens) arbitrary filesystem
// paths the process can reach.
func (s *Server) snapshotPath(w http.ResponseWriter, r *http.Request, be Backend) (string, bool) {
	var req snapshotRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "snapshot: %v", err)
		return "", false
	}
	deflt := be.SnapshotPath()
	if req.Path == "" {
		if deflt == "" {
			writeError(w, http.StatusBadRequest, "snapshot: no path (configure a snapshot path or pass {\"path\": ...})")
			return "", false
		}
		return deflt, true
	}
	if deflt == "" {
		writeError(w, http.StatusForbidden, "snapshot: request paths are disabled (no configured snapshot path to confine them to)")
		return "", false
	}
	allowedDir, err := filepath.Abs(filepath.Dir(deflt))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return "", false
	}
	abs, err := filepath.Abs(req.Path)
	if err != nil || filepath.Dir(abs) != allowedDir {
		writeError(w, http.StatusForbidden, "snapshot: path %q is outside the snapshot directory %q", req.Path, allowedDir)
		return "", false
	}
	return abs, true
}

// handleWorkload exports the recorded query-workload sample in the text
// edge format the partitioning builder consumes.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = s.eng.WriteWorkloadTo(w)
}

// handleStats renders the gauge table and the request counters from one
// view: the values /metrics serves, plus the /stats-only list rows.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.view()
	stats := make(map[string]any, len(s.gauges)+len(s.stats.byKey))
	for i := range s.gauges {
		stats[s.gauges[i].key] = s.gauges[i].value(&v)
	}
	s.stats.addTo(stats)
	writeJSON(w, http.StatusOK, stats)
}
