package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/wire"
)

// maxPooledConns bounds the per-shard query-connection free list.
const maxPooledConns = 4

// shedBackoff is the pause before retrying a shed suffix, matching the
// wire client's ingest retry cadence.
const shedBackoff = 200 * time.Microsecond

// sendJob is one unit of sender work: an edge batch to push, or — when
// flush is non-nil — a drain barrier. Channel order is the delivery
// order, so a flush job completes only after every batch queued before
// it has been acked by the shard.
type sendJob struct {
	edges []stream.Edge
	flush chan<- error
}

// shard is the coordinator's view of one cluster node: a batch buffer
// feeding a sender goroutine that owns the write connection, a pooled set
// of query connections and a degraded flag.
type shard struct {
	id   int
	addr string
	cfg  *Config

	// down marks the shard degraded: ingest sheds to it, queries fail
	// fast, and only a successful probe revives it.
	down atomic.Bool
	// downs counts markDown calls, so the sender can tell that its
	// connection predates a failure.
	downs atomic.Uint64

	// Batch buffer between TryIngest and the sender.
	bmu sync.Mutex
	buf []stream.Edge

	sendCh     chan sendJob
	senderDone chan struct{}

	// Query-connection free list, dropped wholesale on markDown.
	pmu  sync.Mutex
	pool []*wire.Client
}

func newShard(id int, addr string, cfg *Config) *shard {
	return &shard{
		id:         id,
		addr:       addr,
		cfg:        cfg,
		buf:        make([]stream.Edge, 0, cfg.BatchEdges),
		sendCh:     make(chan sendJob, cfg.QueueBatches),
		senderDone: make(chan struct{}),
	}
}

func (sh *shard) dial() (*wire.Client, error) {
	conn, err := net.DialTimeout("tcp", sh.addr, sh.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	return wire.NewClient(conn), nil
}

// markDown degrades the shard and drops its pooled connections (they
// share the peer's fate).
func (sh *shard) markDown() {
	sh.downs.Add(1)
	sh.down.Store(true)
	sh.closeConns()
}

func (sh *shard) getConn() (*wire.Client, error) {
	sh.pmu.Lock()
	if n := len(sh.pool); n > 0 {
		c := sh.pool[n-1]
		sh.pool = sh.pool[:n-1]
		sh.pmu.Unlock()
		return c, nil
	}
	sh.pmu.Unlock()
	return sh.dial()
}

func (sh *shard) putConn(c *wire.Client) {
	c.SetDeadline(time.Time{})
	sh.pmu.Lock()
	if len(sh.pool) < maxPooledConns && !sh.down.Load() {
		sh.pool = append(sh.pool, c)
		sh.pmu.Unlock()
		return
	}
	sh.pmu.Unlock()
	c.Close()
}

func (sh *shard) closeConns() {
	sh.pmu.Lock()
	pool := sh.pool
	sh.pool = nil
	sh.pmu.Unlock()
	for _, c := range pool {
		c.Close()
	}
}

// offer buffers one routed edge, handing full batches to the sender. It
// returns false — rejecting the edge — only when the batch buffer is full
// and the sender queue cannot take it: the coordinator's queue-full
// signal.
func (sh *shard) offer(e stream.Edge) bool {
	sh.bmu.Lock()
	defer sh.bmu.Unlock()
	if len(sh.buf) >= sh.cfg.BatchEdges && !sh.handoffLocked() {
		return false
	}
	sh.buf = append(sh.buf, e)
	if len(sh.buf) >= sh.cfg.BatchEdges {
		sh.handoffLocked() // opportunistic; failure just defers to the next offer
	}
	return true
}

// handoffLocked moves the (possibly partial) batch buffer to the sender
// queue without blocking. Caller holds bmu.
func (sh *shard) handoffLocked() bool {
	if len(sh.buf) == 0 {
		return true
	}
	select {
	case sh.sendCh <- sendJob{edges: sh.buf}:
		sh.buf = make([]stream.Edge, 0, sh.cfg.BatchEdges)
		return true
	default:
		return false
	}
}

// kick hands off a lingering partial batch so trickle traffic still
// reaches the shard within a prober tick.
func (sh *shard) kick() {
	sh.bmu.Lock()
	sh.handoffLocked()
	sh.bmu.Unlock()
}

// sender is the per-shard write loop: it owns one connection, delivers
// batches with the shed-retry protocol, and answers flush barriers. It
// exits when sendCh closes.
func (sh *shard) sender() {
	defer close(sh.senderDone)
	w := writeConn{sh: sh}
	defer w.drop()
	for job := range sh.sendCh {
		if job.flush != nil {
			job.flush <- w.flush()
			continue
		}
		w.send(job.edges)
	}
}

// writeConn is the sender's connection. It is redialed once the shard has
// been marked down since it was opened: a shard the prober revived is a
// new server, and the old connection died with the old one.
type writeConn struct {
	sh    *shard
	cl    *wire.Client
	downs uint64 // sh.downs when cl was dialed
}

// get returns a live connection, or marks the shard down when it cannot
// dial one.
func (w *writeConn) get() (*wire.Client, error) {
	if w.cl != nil && w.downs == w.sh.downs.Load() {
		return w.cl, nil
	}
	w.drop()
	w.downs = w.sh.downs.Load()
	cl, err := w.sh.dial()
	if err != nil {
		w.sh.markDown()
		return nil, err
	}
	w.cl = cl
	return cl, nil
}

// fail drops the connection after a failed round trip and degrades the
// shard.
func (w *writeConn) fail() {
	w.drop()
	w.sh.markDown()
}

func (w *writeConn) drop() {
	if w.cl != nil {
		w.cl.Close()
		w.cl = nil
	}
}

// send delivers one batch, absorbing shard 429s with the retry loop and
// degrading the shard on connection failure (the undelivered suffix is
// lost — rerouting would break partition-disjointness).
func (w *writeConn) send(edges []stream.Edge) {
	if w.sh.down.Load() {
		return
	}
	cl, err := w.get()
	if err != nil {
		return
	}
	for lo := 0; lo < len(edges); {
		cl.SetDeadline(time.Now().Add(w.sh.cfg.OpTimeout))
		accepted, rejected, err := cl.Ingest(edges[lo:])
		lo += accepted
		if err != nil {
			w.fail()
			return
		}
		if rejected > 0 {
			time.Sleep(shedBackoff)
		}
	}
}

// flush delivers a flush barrier: every batch queued before it has
// already been acked (channel order), so one wire Flush drains the shard
// engine's own pipeline.
func (w *writeConn) flush() error {
	sh := w.sh
	if sh.down.Load() {
		return &ShardError{ID: sh.id, Addr: sh.addr, Err: ErrShardDown}
	}
	cl, err := w.get()
	if err != nil {
		return &ShardError{ID: sh.id, Addr: sh.addr, Err: err}
	}
	cl.SetDeadline(time.Now().Add(sh.cfg.OpTimeout))
	if err := cl.Flush(); err != nil {
		w.fail()
		return &ShardError{ID: sh.id, Addr: sh.addr, Err: err}
	}
	cl.SetDeadline(time.Time{})
	return nil
}

// drain pushes the partial batch buffer and a flush barrier through the
// sender, waiting — bounded by ctx — until the shard has applied
// everything queued before the call.
func (sh *shard) drain(ctx context.Context) error {
	sh.bmu.Lock()
	buf := sh.buf
	sh.buf = make([]stream.Edge, 0, sh.cfg.BatchEdges)
	sh.bmu.Unlock()
	if len(buf) > 0 {
		select {
		case sh.sendCh <- sendJob{edges: buf}:
		case <-ctx.Done():
			// Put the batch back in front so accepted edges are not
			// dropped and order is kept (anything offered meanwhile came
			// after it).
			sh.bmu.Lock()
			sh.buf = append(buf, sh.buf...)
			sh.bmu.Unlock()
			return ctx.Err()
		}
	}
	done := make(chan error, 1)
	select {
	case sh.sendCh <- sendJob{flush: done}:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// query scatters one batch to this shard over a pooled connection.
func (sh *shard) query(qs []core.EdgeQuery) ([]core.Result, error) {
	if sh.down.Load() {
		return nil, ErrShardDown
	}
	cl, err := sh.getConn()
	if err != nil {
		sh.markDown()
		return nil, err
	}
	cl.SetDeadline(time.Now().Add(sh.cfg.OpTimeout))
	res, err := cl.Query(nil, qs)
	if err != nil {
		cl.Close()
		sh.markDown()
		return nil, err
	}
	if len(res) != len(qs) {
		cl.Close()
		return nil, fmt.Errorf("cluster: shard answered %d results, want %d", len(res), len(qs))
	}
	sh.putConn(cl)
	return res, nil
}

// probe pings the shard, reviving a degraded shard that answers again.
func (sh *shard) probe() {
	cl, err := sh.getConn()
	if err != nil {
		sh.markDown()
		return
	}
	cl.SetDeadline(time.Now().Add(sh.cfg.OpTimeout))
	if _, _, err := cl.Ping(); err != nil {
		cl.Close()
		sh.markDown()
		return
	}
	sh.down.Store(false)
	sh.putConn(cl)
}
