package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"sync"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/obs"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Addrs are the shard wire-protocol addresses. Order defines shard
	// identity: snapshots refuse to restore under a different ordered
	// list.
	Addrs []string

	// Router is the routing sketch — built from the same sample, config
	// and seed as every shard's engine, so shard(src) = Route(src) mod N
	// is partition-disjoint. Required.
	Router *core.GSketch

	// BatchEdges is the per-shard edge batch size (default 2048).
	BatchEdges int
	// QueueBatches bounds each shard's pending-batch queue (default 8);
	// a full queue is the coordinator's 429.
	QueueBatches int
	// PingInterval is the health-probe period (default 1s; negative
	// disables the prober).
	PingInterval time.Duration
	// DialTimeout bounds shard dials (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds each shard round trip (default 10s).
	OpTimeout time.Duration
	// SnapshotPath is the local manifest path of the snapshot fan-out.
	SnapshotPath string
	// Logger receives structured shard lifecycle events — degraded and
	// revived transitions, with shard/addr attributes. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.BatchEdges <= 0 {
		c.BatchEdges = 2048
	}
	if c.QueueBatches <= 0 {
		c.QueueBatches = 8
	}
	if c.PingInterval == 0 {
		c.PingInterval = time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 10 * time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Coordinator fronts a static shard topology: it routes ingest, scatter-
// gathers queries, fans snapshots out and watches shard health. It
// implements server.Backend, so internal/server can serve a cluster
// behind the unchanged HTTP+wire surface. All methods are safe for
// concurrent use.
type Coordinator struct {
	cfg    Config
	shards []*shard

	// mu gates operations against Close: every operation holds the read
	// side for its full duration, so Close's write acquisition is the
	// drain barrier for in-flight gathers.
	mu     sync.RWMutex
	closed bool

	proberStop chan struct{}
	proberDone chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// New connects a coordinator to its shards. Every shard is dialed and
// pinged eagerly; a shard that cannot be reached fails construction with
// a *ShardError rather than starting a degraded cluster.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if cfg.Router == nil {
		return nil, fmt.Errorf("cluster: nil routing sketch")
	}
	c := &Coordinator{cfg: cfg}
	for i, addr := range cfg.Addrs {
		sh := newShard(i, addr, &c.cfg)
		cl, err := sh.dial()
		if err != nil {
			return nil, &ShardError{ID: i, Addr: addr, Err: err}
		}
		cl.SetDeadline(time.Now().Add(cfg.OpTimeout))
		p, rtt, err := cl.Ping()
		if err != nil {
			cl.Close()
			return nil, &ShardError{ID: i, Addr: addr, Err: err}
		}
		sh.gmu.Lock()
		sh.pong, sh.rtt = p, rtt
		sh.gmu.Unlock()
		sh.putConn(cl)
		c.shards = append(c.shards, sh)
	}
	for _, sh := range c.shards {
		go sh.sender()
	}
	if cfg.PingInterval > 0 {
		c.proberStop = make(chan struct{})
		c.proberDone = make(chan struct{})
		go c.prober()
	}
	return c, nil
}

// NumShards returns the topology size.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Addrs returns the configured shard addresses, in shard-ID order.
func (c *Coordinator) Addrs() []string { return c.cfg.Addrs }

// shardFor routes a source vertex to its owning shard: the gSketch
// partition index (outlier shard for unrouted vertices) folded onto the
// topology, so each partition's substream lands wholly on one shard.
func (c *Coordinator) shardFor(src uint64) *shard {
	return c.shards[c.cfg.Router.Route(src)%len(c.shards)]
}

// TryIngest routes edges to their shards' batch buffers in order, never
// blocking. It keeps the engine's accepted-prefix contract: the first
// edge that cannot be buffered stops the scan, and the error says why —
// ingest.ErrQueueFull when the shard's sender queue is saturated (retry
// after backoff), a *ShardError wrapping ErrShardDown when the owning
// shard is degraded.
func (c *Coordinator) TryIngest(edges []stream.Edge) (int, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return 0, ErrClosed
	}
	for i, e := range edges {
		sh := c.shardFor(e.Src)
		if sh.down.Load() {
			return i, &ShardError{ID: sh.id, Addr: sh.addr, Err: ErrShardDown}
		}
		if !sh.offer(e) {
			return i, ingest.ErrQueueFull
		}
	}
	return len(edges), nil
}

// Admit is TryIngest under the name a producer that folds its own batch
// calls (see gsketch.Engine.Admit): a coordinator's edges belong to the
// shards' queues, so the accepted prefix is already on its way when Admit
// returns, the rest is shed with the same typed errors, and the Admission
// owes nothing.
func (c *Coordinator) Admit(edges []stream.Edge) (int, gsketch.Admission, error) {
	accepted, err := c.TryIngest(edges)
	return accepted, gsketch.Admission{}, err
}

// QueryBatch scatters qs to every shard and folds the answers in shard
// order with query.AccumulateResults — estimates and ε·N_i bounds add,
// confidence union-bounds, stream totals sum — exactly how the adapt
// chain combines generations. Shards that fail are marked degraded and
// reported in a *PartialError; when at least one shard answered, the
// partial result is returned alongside it.
func (c *Coordinator) QueryBatch(qs []core.EdgeQuery) ([]core.Result, error) {
	return c.AppendQueryBatch(nil, qs)
}

// AppendQueryBatch is QueryBatch with the combined answers appended to a
// caller-owned buffer (the per-shard answers still arrive in slices of
// their own: they are decoded off the shards' connections in parallel).
func (c *Coordinator) AppendQueryBatch(dst []core.Result, qs []core.EdgeQuery) ([]core.Result, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return dst, ErrClosed
	}
	if len(qs) == 0 {
		return dst, nil
	}
	type answer struct {
		res []core.Result
		err error
	}
	answers := make([]answer, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			answers[i].res, answers[i].err = sh.query(qs)
		}(i, sh)
	}
	wg.Wait()

	base := len(dst)
	var failed []*ShardError
	for i, a := range answers {
		if a.err != nil {
			se, ok := a.err.(*ShardError)
			if !ok {
				se = &ShardError{ID: c.shards[i].id, Addr: c.shards[i].addr, Err: a.err}
			}
			failed = append(failed, se)
			continue
		}
		if len(dst) == base {
			dst = append(dst, a.res...)
		} else {
			query.AccumulateResults(dst[base:], a.res)
		}
	}
	if len(failed) > 0 {
		return dst, &PartialError{Failed: failed, Shards: len(c.shards)}
	}
	return dst, nil
}

// Drain flushes every healthy shard: partial batch buffers are handed
// off, then a flush barrier round-trips through each sender so the
// shards' own pipelines quiesce. Degraded shards are skipped — their
// backlog is already counted lost.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	return c.drainShards(ctx)
}

func (c *Coordinator) drainShards(ctx context.Context) error {
	var firstErr error
	for _, sh := range c.shards {
		if sh.down.Load() {
			continue
		}
		if err := sh.drain(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// manifest is the local snapshot record: which topology saved, and how
// many bytes each shard persisted to its own disk.
type manifest struct {
	Schema     int      `json:"schema"`
	Shards     []string `json:"shards"`
	ShardBytes []int64  `json:"shard_bytes"`
}

// manifestSchema versions the snapshot manifest format.
const manifestSchema = 1

// SaveSnapshot drains the write path, fans TypeSnapSave out to every
// shard in parallel — each persists to its own configured snapshot path —
// and records the topology in a local JSON manifest at path (default:
// the configured SnapshotPath). It returns the summed per-shard byte
// count. Any shard failure fails the save: a partial snapshot set is not
// a snapshot.
func (c *Coordinator) SaveSnapshot(path string) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return 0, ErrClosed
	}
	if path == "" {
		path = c.cfg.SnapshotPath
	}
	if path == "" {
		return 0, ErrNoSnapshotPath
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.OpTimeout)
	err := c.drainShards(ctx)
	cancel()
	if err != nil {
		return 0, fmt.Errorf("cluster: snapshot drain: %w", err)
	}

	m := manifest{
		Schema:     manifestSchema,
		Shards:     slices.Clone(c.cfg.Addrs),
		ShardBytes: make([]int64, len(c.shards)),
	}
	if err := c.fanOut(func(sh *shard) error {
		cl, err := sh.getConn()
		if err != nil {
			sh.markDown(err)
			return err
		}
		cl.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
		n, err := cl.SaveSnapshot()
		if err != nil {
			cl.Close()
			return err
		}
		sh.putConn(cl)
		m.ShardBytes[sh.id] = n
		return nil
	}); err != nil {
		return 0, err
	}

	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(blob, '\n'), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	var total int64
	for _, n := range m.ShardBytes {
		total += n
	}
	return total, nil
}

// RestoreSnapshot reads the manifest at path (default: the configured
// SnapshotPath), refuses it when its ordered shard list does not match
// the running topology, and fans TypeSnapRestore out to every shard —
// each swaps in the snapshot on its own disk.
func (c *Coordinator) RestoreSnapshot(path string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.closed {
		return ErrClosed
	}
	if path == "" {
		path = c.cfg.SnapshotPath
	}
	if path == "" {
		return ErrNoSnapshotPath
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("cluster: manifest %s: %w", path, err)
	}
	if m.Schema != manifestSchema {
		return fmt.Errorf("cluster: manifest %s: schema %d, want %d", path, m.Schema, manifestSchema)
	}
	if !slices.Equal(m.Shards, c.cfg.Addrs) {
		return fmt.Errorf("%w: manifest lists %v, cluster is %v", ErrTopologyMismatch, m.Shards, c.cfg.Addrs)
	}
	return c.fanOut(func(sh *shard) error {
		cl, err := sh.getConn()
		if err != nil {
			sh.markDown(err)
			return err
		}
		cl.SetDeadline(time.Now().Add(c.cfg.OpTimeout))
		total, gens, err := cl.RestoreSnapshot()
		if err != nil {
			cl.Close()
			return err
		}
		sh.putConn(cl)
		sh.gmu.Lock()
		sh.pong.StreamTotal = total
		sh.pong.Generations = uint32(gens)
		sh.gmu.Unlock()
		return nil
	})
}

// fanOut runs op against every shard in parallel, collecting failures
// into a *PartialError (or the sole *ShardError when only one failed).
func (c *Coordinator) fanOut(op func(*shard) error) error {
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			errs[i] = op(sh)
		}(i, sh)
	}
	wg.Wait()
	var failed []*ShardError
	for i, err := range errs {
		if err == nil {
			continue
		}
		se, ok := err.(*ShardError)
		if !ok {
			se = &ShardError{ID: c.shards[i].id, Addr: c.shards[i].addr, Err: err}
		}
		failed = append(failed, se)
	}
	switch len(failed) {
	case 0:
		return nil
	case 1:
		return failed[0]
	default:
		return &PartialError{Failed: failed, Shards: len(c.shards)}
	}
}

// SnapshotPath returns the configured manifest path.
func (c *Coordinator) SnapshotPath() string { return c.cfg.SnapshotPath }

// Generations reports the highest generation count any shard has pinged
// back — shards repartition independently, so this is a cluster-wide
// upper bound, not an invariant.
func (c *Coordinator) Generations() int {
	gens := 1
	for _, sh := range c.shards {
		sh.gmu.Lock()
		if g := int(sh.pong.Generations); g > gens {
			gens = g
		}
		sh.gmu.Unlock()
	}
	return gens
}

// Health sums the last-pinged shard gauges: cluster stream total, queued
// work (shard queue depths plus the coordinator's own pending batches)
// and the generation upper bound. It never blocks on the network.
func (c *Coordinator) Health() (streamTotal int64, queueDepth, generations int) {
	generations = 1
	for _, sh := range c.shards {
		sh.gmu.Lock()
		p := sh.pong
		sh.gmu.Unlock()
		streamTotal = sketch.AddVolume(streamTotal, p.StreamTotal)
		queueDepth += int(p.QueueDepth) + len(sh.sendCh)
		if g := int(p.Generations); g > generations {
			generations = g
		}
	}
	return streamTotal, queueDepth, generations
}

// Probe pings every shard once, synchronously — the prober's round, also
// exposed so tests and operators can refresh gauges (and revive healed
// shards) without waiting out PingInterval.
func (c *Coordinator) Probe() {
	for _, sh := range c.shards {
		sh.probe()
		sh.kick()
	}
}

func (c *Coordinator) prober() {
	defer close(c.proberDone)
	t := time.NewTicker(c.cfg.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-c.proberStop:
			return
		case <-t.C:
			c.Probe()
		}
	}
}

// ShardStats is one shard's live view for /stats.
type ShardStats struct {
	ID      int    `json:"id"`
	Addr    string `json:"addr"`
	Healthy bool   `json:"healthy"`

	// Last-probe gauges.
	RTTMillis   float64 `json:"rtt_ms"`
	StreamTotal int64   `json:"stream_total"`
	QueueDepth  int     `json:"queue_depth"`
	Generations int     `json:"generations"`
	LastError   string  `json:"last_error,omitempty"`

	// Coordinator-side counters.
	PendingEdges   int64 `json:"pending_edges"`
	PendingBatches int   `json:"pending_batches"`
	EdgesSent      int64 `json:"edges_sent"`
	EdgesLost      int64 `json:"edges_lost"`
	Sheds          int64 `json:"sheds"`
	BatchesSent    int64 `json:"batches_sent"`
	Queries        int64 `json:"queries"`
	QueryErrors    int64 `json:"query_errors"`
}

// Stats is the cluster-wide /stats payload.
type Stats struct {
	Shards      []ShardStats `json:"shards"`
	Healthy     int          `json:"healthy"`
	Degraded    int          `json:"degraded"`
	StreamTotal int64        `json:"stream_total"`
	EdgesLost   int64        `json:"edges_lost"`
}

// Stats snapshots per-shard gauges and counters. It never blocks on the
// network; gauges are as fresh as the last probe.
func (c *Coordinator) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(c.shards))}
	for i, sh := range c.shards {
		sh.gmu.Lock()
		p, rtt, lastErr := sh.pong, sh.rtt, sh.lastErr
		sh.gmu.Unlock()
		s := ShardStats{
			ID:             sh.id,
			Addr:           sh.addr,
			Healthy:        !sh.down.Load(),
			RTTMillis:      float64(rtt.Microseconds()) / 1e3,
			StreamTotal:    p.StreamTotal,
			QueueDepth:     int(p.QueueDepth),
			Generations:    int(p.Generations),
			LastError:      lastErr,
			PendingEdges:   sh.pendingEdges.Load(),
			PendingBatches: len(sh.sendCh),
			EdgesSent:      sh.edgesSent.Load(),
			EdgesLost:      sh.edgesLost.Load(),
			Sheds:          sh.sheds.Load(),
			BatchesSent:    sh.batchesSent.Load(),
			Queries:        sh.queries.Load(),
			QueryErrors:    sh.queryErrs.Load(),
		}
		if s.Healthy {
			st.Healthy++
		} else {
			st.Degraded++
		}
		st.StreamTotal = sketch.AddVolume(st.StreamTotal, s.StreamTotal)
		st.EdgesLost += s.EdgesLost
		st.Shards[i] = s
	}
	return st
}

// Close drains and stops the coordinator: new operations are refused,
// in-flight gathers finish (the write-lock acquisition is the barrier),
// the prober stops, buffered edges are flushed to healthy shards with a
// bounded final drain, and every sender and connection shuts down.
// Close is idempotent; later calls return the first result.
func (c *Coordinator) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		if c.proberStop != nil {
			close(c.proberStop)
			<-c.proberDone
		}
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.OpTimeout)
		for _, sh := range c.shards {
			if sh.down.Load() {
				continue
			}
			if err := sh.drain(ctx); err != nil && c.closeErr == nil {
				c.closeErr = err
			}
		}
		cancel()
		for _, sh := range c.shards {
			close(sh.sendCh)
		}
		for _, sh := range c.shards {
			<-sh.senderDone
		}
		for _, sh := range c.shards {
			sh.closeConns()
		}
	})
	return c.closeErr
}
