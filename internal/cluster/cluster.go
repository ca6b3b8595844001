package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/ingest"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Addrs are the shard wire-protocol addresses. Order defines shard
	// identity.
	Addrs []string

	// Router is the routing sketch — built from the same sample, config
	// and seed as every shard's engine, so shard(src) = Route(src) mod N
	// is partition-disjoint. Required.
	Router *core.GSketch

	// BatchEdges is the per-shard edge batch size (default 2048).
	BatchEdges int
	// QueueBatches bounds each shard's pending-batch queue (default 8);
	// a full queue sheds with ingest.ErrQueueFull.
	QueueBatches int
	// PingInterval is the health-probe period (default 1s; negative
	// disables the prober).
	PingInterval time.Duration
	// DialTimeout bounds shard dials (default 2s).
	DialTimeout time.Duration
	// OpTimeout bounds each shard round trip (default 10s).
	OpTimeout time.Duration
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
	return c
}

// Coordinator fronts a static shard topology: it routes ingest, scatter-
// gathers queries and watches shard health. All methods are safe for
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
		if _, _, err := cl.Ping(); err != nil {
			cl.Close()
			return nil, &ShardError{ID: i, Addr: addr, Err: err}
		}
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

// QueryBatch scatters qs to every shard and folds the answers in shard
// order with query.AccumulateResults — estimates and ε·N_i bounds add,
// stream totals sum. No δ needs splitting: only the shard that owns a
// query's partition answers it from a non-empty sketch. Shards that fail are marked degraded and
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

// Probe pings every shard once, synchronously — the prober's round, also
// exposed so tests can revive healed shards without waiting out
// PingInterval.
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
