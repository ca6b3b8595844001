// Package cluster is a scatter-gather coordinator over N gSketch engines,
// each served on its own binary wire listener (internal/wire). Only the
// benchmark ladder constructs it, for its cluster.* rungs: no server mode
// runs it, and it goes once those rungs do. gSketch itself is a
// single-node estimator; the coordinator is an experiment on top of it.
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
// partition's substream lands wholly on one shard. A shard that does not
// own a vertex's partition never sees its edges — its partition sketch
// stays empty and answers estimate 0 with ε·N_i bound 0 — which is what
// makes the scatter-gather sum byte-identical to a single node fed the
// same stream, bound and confidence included.
//
// # Write path
//
// TryIngest keeps the accepted-prefix contract of the single-node engine:
// edges are routed in order into per-shard batch buffers, full batches
// are handed to a per-shard sender goroutine over a bounded queue, and
// the first edge that cannot be buffered — its shard's queue is full, or
// its shard is degraded — stops the scan. The caller gets the accepted
// prefix length plus ingest.ErrQueueFull (retry after backoff) or a
// *ShardError wrapping ErrShardDown. Drain lands every accepted edge on
// its shard. Senders push batches with the wire retry loop. A send
// failure marks the shard degraded and drops the batch (at-most-once on
// shard failure, never reordered, never rerouted — rerouting would break
// partition-disjointness).
//
// # Read path
//
// QueryBatch scatters the whole batch to every shard over pooled wire
// connections and folds the answers in shard order with
// query.AccumulateResults: estimates and ε·N_i bounds add, stream totals
// sum. Shards that fail mid-gather are marked
// degraded and reported in a typed *PartialError alongside the partial
// result.
//
// # Health
//
// A prober pings every shard each PingInterval (or on Probe) and revives
// degraded shards that answer again.
package cluster
