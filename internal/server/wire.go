package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
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
// internal/wire) and served over a raw TCP listener. Each connection is one
// goroutine running one loop: read a frame, decode it into the connection's
// own buffers, admit it, reply, work it, frame by frame, in order.
//
// The connection is the worker for its own ingest frames. gSketch's
// partitions are independent update domains behind an immutable router, so
// a connection folding under core.Concurrent's stripe locks needs no
// hand-off. A decoded frame is admitted (Backend.Admit: the closed and quota
// checks, and a registration in the in-flight count), the ack is written,
// and only then is the frame folded, whole, out of its decode buffer: no
// copy, no re-batching, and the fold overlaps the client's turn-around.
// Every engine owns a pipeline to register in, so every engine backend
// takes a frame this way; Engine.Ingest is the same Admit → Apply, run
// chunk by chunk on its caller.
//
// Two rules keep one connection's work from starving the others:
//
//   - An ingest frame of longFrame edges or more folds on a goroutine of its
//     own, which takes over its edge buffer, while the loop reads and decodes
//     the next frame; the loop admits or answers nothing before that fold
//     ends, so at most one frame per connection is in flight.
//   - A query frame predicted to take wakeWorth or more is answered after a
//     go statement that starts nothing, which wakes an idle P: while the only
//     awake P works, no M is parked in netpoll and other connections' frames
//     wait; the woken P ends up in netpoll beside the work. The prediction is
//     the connection's last query frame's answer time per query times the
//     frame's query count; a connection's first query frame, and the first
//     after a tenant select, wake unpredicted.
//
// Without the wake, wire_bulk_large lost 21 % of its queries; with long
// frames folded inline, 8 % of its ingest. A wake costs about 14 µs of CPU:
// one before every query frame cost wire_bulk_small (51 µs frames) 12 % of
// its server_cpu_s; wire_mixed_paced (310 µs) and wire_bulk_large (465 µs)
// frames still wake (2 vCPUs; CHANGES.md has the variants).
//
// An ack means: applied by the time any later flush frame, ?sync=1 request,
// snapshot, restore, tenant evict or Close returns, on any connection — the
// registration precedes the ack, and all of those wait on the in-flight
// count. rejected > 0 is left for a tenant over its edge rate: an engine
// backend never sheds a wire frame, its backpressure is one decoded frame
// beside one fold per connection, then the TCP window.
//
// The trade-off: one connection folds on one core (about 16 M edges/s); a
// producer scales by opening connections, and -workers do not apply. HTTP
// keeps the queue, as an HTTP/1.1 handler cannot reply and keep working.

const (
	longFrame = 1024                   // ingest frame size, in edges, from which a connection folds beside its loop
	wakeWorth = 100 * time.Microsecond // predicted answer time from which a query frame wakes an idle P
	wireIOBuf = 64 << 10               // per-connection bufio size on both directions
)

// wakes reports whether a frame of n queries is worth a wake, given the
// connection's last answer time per query (0: none yet).
func wakes(perQuery time.Duration, n int) bool {
	return n > 0 && (perQuery == 0 || perQuery*time.Duration(n) >= wakeWorth)
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

// countedConn counts a connection's bytes into the registry counters.
type countedConn struct {
	net.Conn
	in, out *obs.Counter
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// handleWireConn runs one connection's loop. It keeps its edge, query,
// reply and result buffers for the connection's lifetime, except the edge
// buffer a long frame's fold takes over; the loop then draws a fresh one.
// In tenant mode the connection starts unbound: a TypeTenantSelect frame
// binds the session backend (re-selecting switches it), and work frames
// before any select are refused with CodeUnsupported; the connection stays
// open, like every other error frame.
func (s *Server) handleWireConn(conn net.Conn) {
	defer conn.Close()
	cc := countedConn{conn, s.stats.wireBytesIn, s.stats.wireBytesOut}
	br, bw := bufio.NewReaderSize(cc, wireIOBuf), bufio.NewWriterSize(cc, wireIOBuf)
	dec := wire.NewDecoderSize(br, int(s.cfg.MaxBodyBytes))

	be := s.be // nil in tenant mode until a TypeTenantSelect binds one
	out, edges, qs := frameBufs.get(), edgeBufs.get(), queryBufs.get()
	var results []core.Result  // the answers of every query frame, in turn
	var folding sync.WaitGroup // the long frame folding beside the loop, if any
	var perQuery time.Duration // the last query frame's answer time per query; 0: none yet
	defer func() {
		folding.Wait()
		// Read at exit: a buffer a fold took over is the fold's to return.
		edgeBufs.put(edges)
		queryBufs.put(qs)
		frameBufs.put(out)
	}()
	for {
		typ, name, err := s.readWireFrame(dec, edges, qs)
		folding.Wait() // nothing is admitted or answered beside a fold
		if err != nil {
			if err != io.EOF {
				s.stats.wireDecodeErrors.Add(1)
				*out = wire.AppendError((*out)[:0], wire.CodeBadFrame, err.Error())
				if _, err := bw.Write(*out); err == nil {
					bw.Flush()
				}
			}
			return
		}
		*out = (*out)[:0]
		start := time.Now()
		// adm is what an ingest frame's ack promises and the fold after the
		// write delivers; it stays zero for every other frame.
		var adm gsketch.Admission
		switch {
		case typ == wire.TypeTenantSelect:
			be, *out = s.applyWireTenantSelect(*out, name, be)
			perQuery = 0 // the new backend may answer faster or slower
		case be == nil:
			*out = wire.AppendError(*out, wire.CodeUnsupported,
				"no tenant selected (send a tenant-select frame first)")
		default:
			switch typ {
			case wire.TypeIngest:
				*out, adm = s.admitWireIngest(*out, be, *edges)
			case wire.TypeQuery:
				if wakes(perQuery, len(*qs)) {
					s.stats.wirePollerWakes.Add(1)
					go func() {}() // wakes an idle P into netpoll beside the answer
				}
				*out, results = s.applyWireQuery(*out, be, *qs, results)
				if n := len(*qs); n > 0 {
					perQuery = time.Since(start) / time.Duration(n)
				}
			case wire.TypeFlush:
				*out = s.applyWireFlush(*out, be)
			case wire.TypePing:
				*out = s.applyWirePing(*out, be)
			}
		}
		// A frame's work ends with its reply, an ingest frame's with its fold;
		// observing allocates nothing (the child is resolved at registration).
		apply := s.metrics.wireApply[typ]
		if apply != nil && typ != wire.TypeIngest {
			apply.ObserveSince(start)
		}
		// Flush unless the next frame is already here: consecutive
		// requests coalesce into one TCP write, a lone request replies
		// before its fold.
		_, werr := bw.Write(*out)
		if werr == nil && !frameBuffered(br) {
			werr = bw.Flush()
		}
		// Whatever became of the ack, what was admitted is owed: every
		// drain waits for it.
		switch {
		case typ == wire.TypeIngest && len(*edges) >= longFrame:
			folding.Add(1)
			go func(buf *[]stream.Edge) {
				adm.Apply()
				apply.ObserveSince(start)
				edgeBufs.put(buf)
				folding.Done()
			}(edges)
			edges = edgeBufs.get()
		case typ == wire.TypeIngest:
			adm.Apply()
			apply.ObserveSince(start)
		}
		if werr != nil {
			return
		}
	}
}

// readWireFrame reads the next frame off the connection and decodes its
// records into the connection's buffers; it returns the frame's type and,
// for a tenant select, the name (copied out of the decoder's buffer). The
// decode histogram covers payload → records parsing, not the network wait
// inside dec.Next — an idle connection must not register as slow decoding.
func (s *Server) readWireFrame(dec *wire.Decoder, edges *[]stream.Edge, qs *[]core.EdgeQuery) (typ byte, name string, err error) {
	f, err := dec.Next()
	if err != nil {
		return 0, "", err
	}
	s.stats.wireFrames.Add(1)
	start := time.Now()
	switch f.Type {
	case wire.TypeIngest:
		*edges, err = wire.DecodeEdges((*edges)[:0], f.Payload)
	case wire.TypeQuery:
		*qs, err = wire.DecodeQueries((*qs)[:0], f.Payload)
	case wire.TypeTenantSelect:
		name, err = wire.DecodeTenantSelect(f.Payload)
		return f.Type, name, err
	case wire.TypeFlush, wire.TypePing:
		return f.Type, "", nil
	default:
		return 0, "", fmt.Errorf("%w: client sent reply type 0x%02x", wire.ErrUnknownType, f.Type)
	}
	if err == nil {
		s.metrics.wireDecode.ObserveSince(start)
	}
	return f.Type, "", err
}

// frameBuffered reports whether br already holds the whole next frame, so
// that reading it cannot wait on the client.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < wire.HeaderSize {
		return false
	}
	hdr, _ := br.Peek(wire.HeaderSize)
	return n-wire.HeaderSize >= int(binary.LittleEndian.Uint32(hdr[4:]))
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
