// Package cluster shards a gSketch deployment across processes: a static
// N-node topology where every shard runs a full engine behind the binary
// wire protocol (internal/wire), fronted by a coordinator that routes
// writes and scatter-gathers reads. It is the distribution layer the
// paper's estimator invites — the router is immutable and partitions are
// independent update domains, so a partition's whole substream can live
// on one node and the coordinator can merge per-shard answers exactly the
// way the adapt chain merges per-generation answers.
//
// # Routing
//
// The coordinator owns a routing sketch built from the same sample (and
// seed) as every shard's engine, and routes each edge by
//
//	shard(src) = Router.Route(src) mod N
//
// Route returns the gSketch partition index (the outlier shard for
// unrouted vertices), so the assignment is partition-disjoint: every
// partition's substream lands wholly on one cluster shard. A shard that
// does not own a vertex's partition never sees its edges — its partition
// sketch stays empty and answers estimate 0 with ε·N_i bound 0 — which is
// what makes the scatter-gather sum byte-identical to a single node fed
// the same stream (only the union-bound confidence is weaker, 1−N·δ
// instead of 1−δ).
//
// # Write path
//
// TryIngest keeps the accepted-prefix contract of the single-node engine:
// edges are routed in order into per-shard batch buffers, full batches
// are handed to a per-shard sender goroutine over a bounded queue, and
// the first edge that cannot be buffered — its shard's queue is full, or
// its shard is degraded — stops the scan. The caller gets the accepted
// prefix length plus ingest.ErrQueueFull (retry after backoff) or a
// *ShardError (shard down), so shard backpressure propagates to HTTP 429
// — and to a wire ack with rejected > 0: Admit is TryIngest under the name
// the server's wire connections call, and leaves them nothing to fold — at
// the coordinator. Senders push batches with the wire retry loop; an
// engine-backed shard accepts each frame whole and folds it behind the ack
// on the sender's connection, one core per shard. A send failure
// marks the shard degraded and counts the batch as lost (at-most-once on
// shard failure, never reordered, never rerouted — rerouting would break
// partition-disjointness).
//
// # Read path
//
// QueryBatch scatters the whole batch to every shard over pooled wire
// connections and folds the answers in shard order with
// query.AccumulateResults: estimates and ε·N_i bounds add, confidence
// union-bounds, stream totals sum. Shards that fail mid-gather are marked
// degraded and reported in a typed *PartialError alongside the partial
// result, so callers can distinguish "the cluster's answer" from "most of
// the cluster's answer".
//
// # Health and snapshots
//
// A prober pings every shard each PingInterval, refreshing per-shard
// gauges (stream total, queue depth, generations, RTT) and reviving
// degraded shards that answer again. SaveSnapshot drains the write path
// and fans TypeSnapSave out to every shard — each persists to its own
// local disk — then writes a local JSON manifest recording the topology.
// RestoreSnapshot refuses a manifest whose ordered shard list differs
// from the running topology (ErrTopologyMismatch) and otherwise fans
// TypeSnapRestore out the same way. Streaming snapshot bytes through the
// coordinator is deliberately unsupported (ErrNoStream).
//
// The coordinator implements server.Backend, so internal/server exposes a
// cluster behind the unchanged HTTP+wire surface: clients cannot tell one
// node from N (gsketch-serve -cluster).
package cluster
