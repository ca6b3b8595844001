// Package wire defines the binary framing of the gSketch serving protocol:
// a versioned, length-prefixed frame format carrying batched fixed-width
// edge records on the write path and batched edge queries with their
// bound-carrying results on the read path. It is the high-throughput
// sibling of the HTTP/JSON API — the same operations, none of the JSON
// encode/decode cost — served over a raw TCP listener (gsketch-serve
// -wire-addr) only; the HTTP endpoints take NDJSON and JSON.
//
// # Frame layout
//
// Every frame is an 8-byte header followed by a payload:
//
//	offset  size  field
//	0       1     version (currently 2)
//	1       1     frame type
//	2       2     reserved, must be zero
//	4       4     payload length, little-endian uint32
//
// Payloads are dense arrays of fixed-width little-endian records (results
// behind a batch header):
//
//	TypeIngest         N × 32 bytes: src u64, dst u64, weight i64 (>= 0; zero
//	                   counts as 1), time i64
//	TypeQuery          N × 16 bytes: src u64, dst u64
//	TypeResults        16-byte batch header: stream_total i64, confidence
//	                   f64 (zeros for an empty batch); then N × 24 bytes:
//	                   estimate i64, error_bound f64, partition i32,
//	                   flags u8 (bit 0 = outlier), 3 zero pad bytes
//	TypeAck            8 bytes: accepted u32, rejected u32 (accepted edges
//	                   are applied by the time any later flush returns;
//	                   rejected > 0: retry that suffix — see below)
//	TypeError          2 bytes code u16, then a UTF-8 message
//	TypeFlush          empty (request: drain the ingest pipeline)
//	TypeFlushAck       empty (reply: the drain completed)
//	TypePing           empty (request: health probe, no state change)
//	TypePong           16 bytes: stream_total i64, queue_depth u32 (batches
//	                   in the server's HTTP-fed ingest queue; wire frames
//	                   never enter it), generations u32
//	TypeTenantSelect   1..64 bytes: tenant name, UTF-8 (request: bind the
//	                   connection to a tenant on a multi-tenant server)
//	TypeTenantAck      empty (reply: tenant selected)
//
// The conversation is strictly request/reply in frame order: TypeIngest is
// answered by TypeAck, TypeQuery by TypeResults (one record per query, in
// input order), TypeFlush by TypeFlushAck and TypePing by TypePong. Types
// 0x0A–0x0D are reserved: they carried a snapshot save/restore pair whose
// only sender, a cluster coordinator's fan-out, is gone, and the decoder
// rejects them as ErrUnknownType. Error code 5 is reserved with them.
//
// An ack is a promise, not a receipt for finished work. The server
// registers the frame's accepted edges as in flight, writes the ack, and
// only then folds them into the sketch, while the client prepares its next
// frame: on the connection's goroutine, or for a frame of 1024 edges or
// more on one beside it while the connection reads the next frame.
// Accepted means: applied by the time any later TypeFlush (or HTTP
// ?sync=1, snapshot, restore, shutdown) returns, on any connection. A
// server backed by an engine accepts every well-formed ingest frame whole;
// its backpressure is one decoded frame beside one fold, then the TCP
// window. rejected > 0, the wire equivalent of HTTP 429 (retry the
// rejected suffix after a pause), is left for a tenant over its edge-rate
// quota. One connection folds on one core (about 16 M edges/s); a producer
// opens more connections to fold in parallel. A query frame the server
// predicts to take 100 µs or more is answered after a wake of an idle P.
//
// Version 2 sends a batch's stream total and confidence once, in the
// results header, not in each record (version 1's were 40 bytes). There is
// no negotiation: a version-1 frame is refused like any unknown version,
// with one TypeError CodeBadFrame frame, and the server closes the connection.
//
// Ping is a health probe that reads the server's gauges without changing
// them. A server that cannot parse or serve a frame
// answers TypeError and closes the connection: framing errors are not
// recoverable mid-stream.
//
// On a multi-tenant server (gsketch-serve -tenants), a connection starts
// unbound: the client must send TypeTenantSelect (answered by
// TypeTenantAck) before any work frame; an unknown tenant name is
// answered with TypeError CodeNotFound, and work frames sent before a
// select with TypeError CodeUnsupported. Re-selecting mid-connection
// switches tenants. Tenant creation and deletion are not wire
// operations — they go through the HTTP admin API (PUT/DELETE/GET
// /t/{tenant}, GET /t), keeping the wire surface purely data-path.
//
// Decoding is defensive: unknown versions, unknown types, nonzero reserved
// bytes, payloads above the decoder bound, lengths that are not a multiple
// of the record width, edges with a negative weight (the sketches count in
// the cash-register model) and result records with unknown flag bits or
// non-zero pad bytes are all rejected with typed errors, never a panic, and
// a claimed length never allocates more than the decoder bound. Every
// record-bearing payload that decodes re-encodes to the same bytes.
package wire
