// Package tenant multiplexes many named gsketch engines behind one
// serving process: a lifecycle-managed Registry of tenants, each an
// independent sketch with its own quotas, reachable through a Handle
// that implements the server's Backend interface — so the whole
// HTTP/wire surface becomes tenant-scoped without the handlers knowing.
//
// The design axis is density: gSketch instances are cheap (a fixed
// memory budget each), so one process can host thousands of tenants as
// long as only the hot set is resident. The Registry enforces that with
// a MaxResident LRU cap — a cold tenant is snapshotted to its own
// directory and its engine closed; the next access reopens it from the
// snapshot transparently (the caller just sees a slower request).
// Byte-identical estimates across the evict→reopen round trip are the
// correctness contract, inherited from the engine's snapshot format.
//
// Quotas map onto the server's existing backpressure semantics: each
// tenant has an edge-rate token bucket (ErrRateLimited carries the same
// accepted-prefix contract as gsketch.ErrIngestQueueFull, so a 429 with
// the accepted count — or, over the wire protocol, an ack with
// rejected > 0 — falls out of the existing handler), a per-tenant ingest
// queue bound, and a per-tenant sketch memory budget. The bucket is charged
// on both ingest arms: TryIngest (HTTP, queued) and Admit (a wire
// connection, which folds the granted prefix itself once it has acked it).
//
// On disk the registry is a directory tree —
//
//	<dir>/manifest.json         tenant catalog (atomic tmp+rename)
//	<dir>/<name>/gsketch.snap   one snapshot per tenant
//
// — so a restart resumes the same tenant set with every tenant cold.
package tenant
