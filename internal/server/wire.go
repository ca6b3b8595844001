package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/tenant"
	"github.com/graphstream/gsketch/internal/wire"
)

// The binary wire protocol endpoint: the same ingest/query/flush
// operations as the HTTP/JSON API, framed as fixed-width records (see
// internal/wire) and served over a raw TCP listener. Each connection runs
// two goroutines — a decode goroutine that parses frames and an apply
// goroutine that works them — joined by a short channel.
//
// Overlap is not why: a request/reply client sends no next frame until it
// has the reply, so there is rarely a frame k+1 to parse beside frame k.
// The split is kept because it measured faster where it counts, and it is
// not to be merged into one goroutine without measuring again. A prototype
// with one goroutine per connection (the repository benchmark, 4
// alternating pairs per workload, 2 vCPUs) gained on wire_bulk_small —
// ingest_edges_per_s +20.5 %, server_cpu_s −17.7 % — but lost on
// wire_bulk_large: query_per_s −17.9 %, with the server's profile falling
// from 1.16 to 0.89 busy cores. The cause is the scheduler, measured on
// wire_bulk_large (3 alternating pairs each, 2 vCPUs):
//
//   - With one goroutine per connection, query_per_s fell 12.5 % (4.58 M →
//     4.00 M) and query_mid_ms rose 30 %.
//   - Starting a goroutine before each query apply wakes an idle P, which
//     then sits in netpoll. That brought queries back to −2 % (5.39 M →
//     5.29 M), but ingest_edges_per_s still fell 13.5 % (23.5 M → 20.3 M):
//     an 8192-edge fold starves the poller the same way.
//
// While the only awake P folds or answers, no M is parked in netpoll, so
// the other connection's frame waits until that work ends. The channel
// hand-off's wakep is what keeps a poller alive beside the work.
//
// The apply goroutine is also the worker for its own ingest frames. A
// decoded frame is admitted (the backend's closed and quota checks, and a
// registration in the ingest pipeline's in-flight count: Backend.Admit),
// the ack is written — flushed when no decoded frame is waiting — and only
// then are the edges folded into the estimator, whole and on this
// goroutine, out of the very buffer they were decoded into. gSketch's
// partitions are independent update domains behind an immutable router, so
// a connection folding under core.Concurrent's stripe locks needs no
// hand-off: the frame is not copied into the ingest queue, not re-cut into
// pipeline batches and wakes no worker, and the fold overlaps the client's
// turn-around instead of delaying its ack.
//
// What an ack means is unchanged: accepted edges are applied by the time
// any later flush frame, ?sync=1 request, snapshot, restore, tenant evict
// or Close returns, on this connection or any other — the registration
// precedes the ack, and all of those wait on the in-flight count.
// rejected > 0 is left for what really is refused: a tenant over its edge
// rate. An engine backend
// never sheds a wire frame; its backpressure is wirePipelineDepth decoded
// frames per connection, then the TCP window — never an unbounded buffer,
// never a retry loop.
//
// The trade-off: one connection folds on one core (about 16 M edges/s at
// 60 ns/edge, 0.5 GB/s of frames). A producer scales past that by opening
// connections, which the stripe locks serve in parallel; the ingest
// pipeline's -workers do not apply to wire frames. HTTP keeps the queue:
// an HTTP/1.1 handler cannot reply and keep working, so there the queue is
// what overlaps the fold with the client's turn-around.

// wirePipelineDepth is the decoded-frame channel bound per connection:
// deep enough to keep the apply stage fed, shallow enough that a slow
// consumer backpressures the decoder (and through it, the TCP window). At
// 8192-edge frames it holds at most 1 MiB of decoded edges.
const wirePipelineDepth = 4

// wireIOBuf is the per-connection bufio size on both directions.
const wireIOBuf = 64 << 10

// wireJob is one decoded frame travelling between the two pipeline
// stages. Exactly one of edges/qs is set for work frames; tenant carries
// a TypeTenantSelect name (copied out of the decoder's buffer before
// crossing the channel — the payload aliases it); a terminal job carries
// err (io.EOF for a clean end of stream) and ends the connection.
type wireJob struct {
	typ    byte
	edges  *[]stream.Edge
	qs     *[]core.EdgeQuery
	tenant string
	err    error
}

// ServeWire accepts wire-protocol connections on ln until Shutdown, which
// closes the listener and every open connection. Like Serve, it returns
// http.ErrServerClosed after a graceful shutdown.
func (s *Server) ServeWire(ln net.Listener) error {
	s.wireMu.Lock()
	if s.closing.Load() {
		s.wireMu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	s.wireLns[ln] = struct{}{}
	s.wireMu.Unlock()
	defer func() {
		s.wireMu.Lock()
		delete(s.wireLns, ln)
		s.wireMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closing.Load() {
				return http.ErrServerClosed
			}
			return err
		}
		s.wireMu.Lock()
		if s.closing.Load() {
			s.wireMu.Unlock()
			conn.Close()
			return http.ErrServerClosed
		}
		s.wireConns[conn] = struct{}{}
		s.wireWg.Add(1)
		s.wireMu.Unlock()
		go func() {
			defer s.wireWg.Done()
			defer func() {
				s.wireMu.Lock()
				delete(s.wireConns, conn)
				s.wireMu.Unlock()
			}()
			s.handleWireConn(conn)
		}()
	}
}

// closeWire stops the wire listeners and connections during Shutdown.
func (s *Server) closeWire() {
	s.wireMu.Lock()
	for ln := range s.wireLns {
		ln.Close()
	}
	for conn := range s.wireConns {
		conn.Close()
	}
	s.wireMu.Unlock()
	s.wireWg.Wait()
}

// varReader counts bytes read into a registry counter.
type varReader struct {
	r io.Reader
	n *obs.Counter
}

func (v varReader) Read(p []byte) (int, error) {
	n, err := v.r.Read(p)
	if n > 0 {
		v.n.Add(int64(n))
	}
	return n, err
}

// varWriter counts bytes written into a registry counter.
type varWriter struct {
	w io.Writer
	n *obs.Counter
}

func (v varWriter) Write(p []byte) (int, error) {
	n, err := v.w.Write(p)
	if n > 0 {
		v.n.Add(int64(n))
	}
	return n, err
}

// handleWireConn runs one connection's two-stage pipeline. The decode
// goroutine owns the read half: it parses frames into pooled record
// buffers and hands them over a bounded channel (why the connection is
// split in two is measured at the top of this file). The apply loop (this
// goroutine) owns the write half: it admits, acks and then folds ingest
// batches, answers queries out of one result buffer it keeps for the
// connection's lifetime, and streams replies through a buffered writer
// flushed whenever the pipeline momentarily empties.
//
// In tenant mode the connection starts unbound: a TypeTenantSelect frame
// binds the session backend (re-selecting switches it), and work frames
// before any select are refused with CodeUnsupported — the connection
// stays open, like every other error frame.
func (s *Server) handleWireConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReaderSize(varReader{r: conn, n: s.stats.wireBytesIn}, wireIOBuf)
	bw := bufio.NewWriterSize(varWriter{w: conn, n: s.stats.wireBytesOut}, wireIOBuf)

	jobs := make(chan wireJob, wirePipelineDepth)
	go s.wireDecodeLoop(br, jobs)

	be := s.be // nil in tenant mode until a TypeTenantSelect binds one
	out := getFrameBuf()
	defer putFrameBuf(out)
	var results []core.Result // the answers of every query frame, in turn
	var werr error            // first write failure; later jobs only recycle buffers
	for job := range jobs {
		if job.err != nil {
			if job.err != io.EOF && werr == nil {
				s.stats.wireDecodeErrors.Add(1)
				*out = wire.AppendError((*out)[:0], wire.CodeBadFrame, job.err.Error())
				if _, err := bw.Write(*out); err == nil {
					bw.Flush()
				}
			}
			break // terminal: the decode loop closes jobs after it
		}
		if werr != nil {
			s.recycleWireJob(job)
			continue
		}
		*out = (*out)[:0]
		start := time.Now()
		// adm is what an ingest frame's ack promises and the fold after the
		// write delivers; it stays zero for every other frame.
		var adm gsketch.Admission
		switch {
		case job.typ == wire.TypeTenantSelect:
			be, *out = s.applyWireTenantSelect(*out, job.tenant, be)
		case be == nil:
			*out = wire.AppendError(*out, wire.CodeUnsupported,
				"no tenant selected (send a tenant-select frame first)")
		default:
			switch job.typ {
			case wire.TypeIngest:
				*out, adm = s.admitWireIngest(*out, be, *job.edges)
			case wire.TypeQuery:
				*out, results = s.applyWireQuery(*out, be, *job.qs, results)
			case wire.TypeFlush:
				*out = s.applyWireFlush(*out, be)
			case wire.TypePing:
				*out = s.applyWirePing(*out, be)
			}
		}
		// The apply histogram child was resolved at registration; the
		// observation is two clock reads and three atomic adds, keeping
		// the hot loop allocation-free. A frame's work is done once its
		// reply is built — except an ingest frame's, whose time runs on
		// through the ack and the fold.
		apply := s.metrics.wireApply[job.typ]
		if apply != nil && job.typ != wire.TypeIngest {
			apply.ObserveSince(start)
		}
		// Flush only when no decoded frame is waiting: consecutive
		// requests coalesce into one TCP write, a lone request replies
		// immediately.
		if _, werr = bw.Write(*out); werr == nil && len(jobs) == 0 {
			werr = bw.Flush()
		}
		if job.typ == wire.TypeIngest {
			// Whatever became of the ack, what was admitted is owed: every
			// drain waits for it.
			adm.Apply()
			apply.ObserveSince(start)
		}
		s.recycleWireJob(job)
	}
	bw.Flush()
}

// wireDecodeLoop is the first pipeline stage: it parses frames off the
// connection into pooled buffers and forwards them. On any terminal
// condition it sends one err-carrying job and closes the channel.
func (s *Server) wireDecodeLoop(r io.Reader, jobs chan<- wireJob) {
	defer close(jobs)
	dec := wire.NewDecoderSize(r, int(s.cfg.MaxBodyBytes))
	for {
		f, err := dec.Next()
		if err != nil {
			jobs <- wireJob{err: err}
			return
		}
		s.stats.wireFrames.Add(1)
		// The decode histogram covers payload → records parsing, not the
		// network wait inside dec.Next — an idle connection must not
		// register as slow decoding.
		switch f.Type {
		case wire.TypeIngest:
			buf := getEdgeBuf()
			start := time.Now()
			*buf, err = wire.DecodeEdges((*buf)[:0], f.Payload)
			if err != nil {
				putEdgeBuf(buf)
				jobs <- wireJob{err: err}
				return
			}
			s.metrics.wireDecode.ObserveSince(start)
			jobs <- wireJob{typ: f.Type, edges: buf}
		case wire.TypeQuery:
			buf := getQueryBuf()
			start := time.Now()
			*buf, err = wire.DecodeQueries((*buf)[:0], f.Payload)
			if err != nil {
				putQueryBuf(buf)
				jobs <- wireJob{err: err}
				return
			}
			s.metrics.wireDecode.ObserveSince(start)
			jobs <- wireJob{typ: f.Type, qs: buf}
		case wire.TypeTenantSelect:
			// DecodeTenantSelect copies the name out of the decoder's
			// buffer — the payload is invalid once the next frame is read.
			name, err := wire.DecodeTenantSelect(f.Payload)
			if err != nil {
				jobs <- wireJob{err: err}
				return
			}
			jobs <- wireJob{typ: f.Type, tenant: name}
		case wire.TypeFlush, wire.TypePing:
			jobs <- wireJob{typ: f.Type}
		default:
			jobs <- wireJob{err: fmt.Errorf("%w: client sent reply type 0x%02x", wire.ErrUnknownType, f.Type)}
			return
		}
	}
}

func (s *Server) recycleWireJob(job wireJob) {
	if job.edges != nil {
		putEdgeBuf(job.edges)
	}
	if job.qs != nil {
		putQueryBuf(job.qs)
	}
}

// applyWireTenantSelect resolves a tenant-select frame against the
// registry and returns the (possibly re-bound) session backend plus the
// reply frame. On a non-tenant server, or for an unknown tenant, the
// previous binding is kept and an error frame goes back.
func (s *Server) applyWireTenantSelect(out []byte, name string, prev Backend) (Backend, []byte) {
	if s.tenants == nil {
		return prev, wire.AppendError(out, wire.CodeUnsupported, "tenant select: server is not in tenant mode")
	}
	h, err := s.tenants.Tenant(name)
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		return prev, wire.AppendError(out, wire.CodeNotFound, "tenant select: "+err.Error()+": "+name)
	case errors.Is(err, tenant.ErrClosed):
		return prev, wire.AppendError(out, wire.CodeClosed, "tenant select: "+err.Error())
	case err != nil:
		return prev, wire.AppendError(out, wire.CodeInternal, "tenant select: "+err.Error())
	}
	return h, wire.AppendTenantAck(out)
}

// admitWireIngest admits one decoded edge batch to the backend and appends
// the ack (or error) reply frame; the caller folds the returned Admission
// once the reply is written. rejected > 0 tells the client to retry that
// suffix after a tenant's token-bucket cut; an engine backend admits the
// whole frame or, closed, none of it.
func (s *Server) admitWireIngest(out []byte, be Backend, edges []stream.Edge) ([]byte, gsketch.Admission) {
	s.stats.ingestRequests.Add(1)
	accepted, adm, err := be.Admit(edges)
	s.stats.edgesAccepted.Add(int64(accepted))
	rejected := len(edges) - accepted
	switch {
	case errors.Is(err, tenant.ErrNotFound):
		out = wire.AppendError(out, wire.CodeNotFound, "ingest: "+err.Error())
	case errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
		out = wire.AppendError(out, wire.CodeClosed, "ingest pipeline closed")
	case errors.Is(err, gsketch.ErrIngestQueueFull), errors.Is(err, tenant.ErrRateLimited):
		s.stats.edgesRejected.Add(int64(rejected))
		out = wire.AppendAck(out, accepted, rejected)
	case err != nil:
		out = wire.AppendError(out, wire.CodeInternal, err.Error())
	default:
		out = wire.AppendAck(out, accepted, 0)
	}
	return out, adm
}

// applyWireQuery answers one decoded query batch into results, the
// connection's own buffer (returned, as it may have grown), and appends the
// results frame.
func (s *Server) applyWireQuery(out []byte, be Backend, qs []core.EdgeQuery, results []core.Result) ([]byte, []core.Result) {
	s.stats.queryRequests.Add(1)
	if len(qs) == 0 {
		return wire.AppendResults(out, nil), results
	}
	results, err := be.AppendQueryBatch(results[:0], qs)
	if err != nil {
		code := uint16(wire.CodeInternal)
		switch {
		case errors.Is(err, tenant.ErrNotFound):
			code = wire.CodeNotFound
		case errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
			code = wire.CodeClosed
		}
		return wire.AppendError(out, code, err.Error()), results
	}
	s.stats.queriesAnswered.Add(int64(len(results)))
	return wire.AppendResults(out, results), results
}

// applyWireFlush drains the ingest pipeline (bounded by FlushTimeout) and
// appends the flush ack.
func (s *Server) applyWireFlush(out []byte, be Backend) []byte {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FlushTimeout)
	defer cancel()
	err := be.Drain(ctx)
	switch {
	case err == nil, errors.Is(err, gsketch.ErrEngineClosed), errors.Is(err, tenant.ErrClosed):
		return wire.AppendFlushAck(out)
	case errors.Is(err, tenant.ErrNotFound):
		return wire.AppendError(out, wire.CodeNotFound, "flush: "+err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		return wire.AppendError(out, wire.CodeInternal, "flush: drain did not quiesce")
	default:
		return wire.AppendError(out, wire.CodeInternal, "flush: "+err.Error())
	}
}

// applyWirePing answers a health probe from the backend's non-blocking
// gauges.
func (s *Server) applyWirePing(out []byte, be Backend) []byte {
	total, depth, gens := be.Health()
	return wire.AppendPong(out, wire.Pong{
		StreamTotal: total,
		QueueDepth:  uint32(depth),
		Generations: uint32(gens),
	})
}
