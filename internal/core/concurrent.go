package core

import (
	"io"
	"math/bits"
	"sync"

	"github.com/graphstream/gsketch/internal/stream"
)

// Concurrent wraps a GSketch for shared use by multiple writers and
// readers.
//
// Synchronization is sharded: the vertex→partition router is immutable
// after construction, so each partition (plus the outlier sketch) is an
// independent update domain. The domains are guarded by up to
// maxLockStripes RWMutexes, with partition p mapped to stripe p mod
// stripes — a partitioning can produce thousands of tiny leaves, and
// striping keeps the per-batch lock traffic bounded. A batch in either
// direction is routed lock-free, in blocks, by a pooled grouping.
//
// An edge batch's touched-shard list comes ordered by stripe, so the
// positions a stripe guards are one contiguous run of the shard-major
// batch: the stripe's write lock is taken once and held for one call of the
// sketch bank's routed kernel over that run. A writer holds one stripe at a
// time. A query chunk stays in input order: each stripe it touches is
// read-locked once, in ascending stripe order, for one kernel call over the
// whole chunk and the touched shards' bounds. Readers holding several
// stripes always take them in the same order and writers never hold two,
// so there is no lock-order cycle; a writer on a touched stripe waits for
// at most one chunk's kernel call (estimateChunk positions). A batch
// therefore costs O(batch + touched partitions) and at most
// min(batch, stripes) lock acquisitions per chunk, independent of the
// partition count, and batches on different stripes proceed in parallel.
// The stream-volume total is atomic inside GSketch.
type Concurrent struct {
	g       *GSketch
	stripes []sync.RWMutex
	// pool holds *grouping, one per in-flight batch of either direction. sync
	// keeps a used pool reachable through the next collection: held by
	// pointer, with a New that sees sizes only, it keeps no sketch alive.
	pool *sync.Pool
}

// maxLockStripes bounds the lock array. Far above any realistic worker
// count, far below pathological partition counts.
const maxLockStripes = 64

// NewConcurrent wraps g. The wrapper owns synchronization; callers must not
// use g directly afterwards.
func NewConcurrent(g *GSketch) *Concurrent {
	shards := g.NumShards()
	n := min(shards, maxLockStripes)
	return &Concurrent{g: g, stripes: make([]sync.RWMutex, n),
		pool: &sync.Pool{New: func() any { return newGrouping(shards, n) }}}
}

// stripeOf maps a shard to its lock stripe.
func (c *Concurrent) stripeOf(shard int) int { return shard % len(c.stripes) }

// rlock read-locks the stripes guarding the touched shards, each once and
// in ascending stripe order — the order every reader that holds several
// takes them in — and returns the set it locked, one bit per stripe
// (maxLockStripes is 64).
func (c *Concurrent) rlock(touched []int32) uint64 {
	var set uint64
	for _, shard := range touched {
		set |= 1 << c.stripeOf(int(shard))
	}
	for s := set; s != 0; s &= s - 1 {
		c.stripes[bits.TrailingZeros64(s)].RLock()
	}
	return set
}

// runlock releases the read locks rlock took.
func (c *Concurrent) runlock(set uint64) {
	for ; set != 0; set &= set - 1 {
		c.stripes[bits.TrailingZeros64(set)].RUnlock()
	}
}

// UpdateBatch folds a batch of edge arrivals. The batch is routed and
// grouped by destination shard without any lock (the router is immutable),
// each run of adjacent equal edges folded into one position carrying the
// run's weight sum, then each touched stripe's groups are applied under its
// lock in one kernel call — so concurrent batches serialize only where they
// actually collide, and a batch's cost follows its runs and the shards it
// touches, not its arrivals or the partition count. Counters, the stream
// total and the routed-write counts end up as GSketch.Update in stream
// order leaves them.
func (c *Concurrent) UpdateBatch(edges []stream.Edge) {
	if len(edges) == 0 {
		return
	}
	gr := c.pool.Get().(*grouping)
	total := gr.routeEdges(c.g, edges)
	// The touched list is ordered by stripe, so the groups a stripe guards
	// form one run [j0, j1).
	for j0 := 0; j0 < len(gr.touched); {
		st := c.stripeOf(int(gr.touched[j0]))
		j1 := j0 + 1
		for j1 < len(gr.touched) && c.stripeOf(int(gr.touched[j1])) == st {
			j1++
		}
		c.stripes[st].Lock()
		gr.update(c.g, j0, j1)
		c.stripes[st].Unlock()
		j0 = j1
	}
	c.pool.Put(gr)
	c.g.addTotal(total)
}

// Count returns the stream volume folded in so far.
func (c *Concurrent) Count() int64 { return c.g.Count() }

// MemoryBytes reports the wrapped sketch's footprint. The arena's size is
// fixed: nothing to lock.
func (c *Concurrent) MemoryBytes() int { return c.g.MemoryBytes() }

// NumShards reports the number of independent writer domains.
func (c *Concurrent) NumShards() int { return c.g.NumShards() }

// WriteTo serializes the wrapped sketch while holding a consistent read
// lock: every stripe's read lock is acquired for the whole serialization,
// so no partition counter can move mid-snapshot and a restored sketch
// answers byte-identically to the live one at snapshot time. Readers proceed concurrently; writers block for the duration.
//
// The stream total is folded in by writers after their counters land
// (outside the stripe locks), so a snapshot racing active writers can carry
// a total that lags the counters by the in-flight batches. Quiesce writers
// first (e.g. Ingestor.Flush) when the exact counters↔total correspondence
// matters; either way the snapshot itself is internally valid.
func (c *Concurrent) WriteTo(w io.Writer) (int64, error) {
	for i := range c.stripes {
		c.stripes[i].RLock()
	}
	defer func() {
		for i := range c.stripes {
			c.stripes[i].RUnlock()
		}
	}()
	return c.g.WriteTo(w)
}

// Unwrap returns the wrapped sketch. Callers must hold no concurrent
// operations while using it directly.
func (c *Concurrent) Unwrap() *GSketch { return c.g }

var _ Estimator = (*Concurrent)(nil)
