package core

import (
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// grouping is one routed batch, the single mechanism behind both batch
// directions: UpdateBatch scatters an edge batch's (key, weight) groups into
// the shards in flat shard-major layout, EstimateBatch answers a query batch
// in input order.
//
// A position is one query of a query batch and one run of an edge batch: a
// maximal streak of adjacent arrivals of the same (Src, Dst), folded into
// one position that carries the run's saturating weight sum. Graph streams
// repeat edges back to back — on the repository benchmark's bulk and
// tenant streams seven arrivals in eight repeat the one before — so the
// routing probe, the key hash and the kernel's d cell updates are paid once
// per run. Folding is exact in both update modes (sketch.Bank.UpdateRouted
// says why), and only adjacent arrivals fold: merging a key's later
// arrivals into an earlier position would move them past other keys'
// conservative updates.
//
// A routing pass records every position's shard and edge key and counts the
// shard's group, noting each shard the first time it is hit in the touched
// list. It runs in blocks of routeBlock positions, touching a block's router
// slots before probing them (routeBlock says why). An edge batch then lays
// its groups out by a prefix sum over the touched list and a placement pass
// — a stable counting sort, so every group keeps stream order — writes
// shard, key and weight group-major. A query batch needs no placement: the
// kernel reads any order, so it is answered where it stands. Nothing walks
// the whole shard range: the per-shard counts are all zero between batches
// and only the touched entries are counted, summed, hit-counted and cleared
// again, so a batch costs O(batch + touched shards) however finely the
// sketch is partitioned — a one-edge batch on 16 k partitions touches one
// counter, not 16 k. All buffers are reused across batches: steady-state
// batches allocate nothing beyond EstimateBatch's caller-visible []Result,
// and not that either when the caller hands Concurrent.AppendEstimates a
// buffer of its own.
//
// The sketch bank's routed kernels take any run of positions beside their
// shards, one call per run: a bare GSketch hands over a whole edge batch or
// query chunk, Concurrent one stripe's groups of an edge batch per write
// lock and a whole query chunk under the read locks of the stripes it
// touches (sketch.Bank has the per-position cost model). Only the immutable
// router is read while grouping, so it runs lock-free beside shard-local
// counter writes.
type grouping struct {
	// stripes is the lock-stripe count an edge batch's touched list is
	// ordered by; 1 or less keeps first-touch order (no locks to amortize).
	stripes int

	// Per batch position, in input order.
	shardOf []int32  // shard the position routes to
	keys    []uint64 // the position's source Mix64 in pass 1, its edge key after
	weights []int64  // its run's weight sum (edge batches only)

	// Shard-major (edge batches): group j of touched occupies
	// [off[j], off[j+1]).
	gshard []int32 // the shard again, per position: the bank kernels' input
	gkeys  []uint64
	gvals  []int64 // an edge batch's weights; a query batch's estimates, in input order
	off    []int32

	// touched lists the shards with a non-empty group; spare is its
	// second buffer for the stripe ordering.
	touched, spare []int32

	// Per shard. count is the group size in positions while routing and the
	// placement cursor afterwards. folded counts the arrivals folded into
	// the first position of their run, so that count+folded, the shard's
	// routed hits, still counts every arrival. Only a run of two or more
	// writes folded, so a position without one touches one counter, as
	// before: at 16 k shards these arrays outgrow the first-level cache, and
	// a second per-position counter measurably slowed both directions. Both
	// are zero between batches. bound is the ε·N_i bound of a gathered group,
	// valid for the touched shards only.
	count  []int32
	folded []int32
	bound  []float64

	// home keeps the sum of the last routing pass's home-slot loads, so the
	// compiler cannot drop them as dead. A field, not a package variable:
	// concurrent batches would race on one.
	home uint64
}

func newGrouping(shards, stripes int) *grouping {
	return &grouping{
		stripes: stripes,
		count:   make([]int32, shards),
		folded:  make([]int32, shards),
		bound:   make([]float64, shards),
	}
}

// begin sizes the per-position and shard-major buffers for an n-element
// batch.
func (gr *grouping) begin(n int) {
	if cap(gr.shardOf) < n {
		gr.shardOf = make([]int32, n)
		gr.keys = make([]uint64, n)
		gr.weights = make([]int64, n)
		gr.gshard = make([]int32, n)
		gr.gkeys = make([]uint64, n)
		gr.gvals = make([]int64, n)
		gr.off = make([]int32, n+1)
		gr.touched = make([]int32, n)
		gr.spare = make([]int32, n)
	}
	gr.shardOf = gr.shardOf[:n]
	gr.keys = gr.keys[:n]
	gr.gshard = gr.gshard[:n]
	gr.gkeys = gr.gkeys[:n]
	gr.gvals = gr.gvals[:n]
	gr.touched = gr.touched[:n]
}

// mark is the routing pass's step for position i: it records the shard and
// the edge key, counts the position into its shard's group and notes a
// first-touched shard at touched[nt]. It returns the advanced nt.
func (gr *grouping) mark(i, nt, shard int, key uint64) int {
	gr.shardOf[i] = int32(shard)
	gr.keys[i] = key
	c := gr.count[shard]
	gr.count[shard] = c + 1
	// nt ≤ i, so the store is in range; it is kept only on a first touch.
	gr.touched[nt] = int32(shard)
	if c == 0 {
		nt++
	}
	return nt
}

// layout closes an edge batch's routing pass: it orders the nt touched
// shards by lock stripe, turns their counts into group offsets (count
// becomes the placement cursor) and folds the arrivals each group stands
// for — its count, plus folded when the batch had runs (folded is nil
// otherwise) — into the routed-write counts hits (the drift signal of
// adaptive repartitioning), one atomic add per touched shard.
func (gr *grouping) layout(nt int, hits []atomic.Int64, folded []int32) {
	gr.touched = gr.touched[:nt]
	if gr.stripes > 1 && nt > 1 {
		gr.orderByStripe()
	}
	gr.off = gr.off[:nt+1]
	var o int32
	for j, shard := range gr.touched {
		c := gr.count[shard]
		gr.count[shard] = o
		o += c
		gr.off[j+1] = o
		n := int64(c)
		if folded != nil {
			n += int64(folded[shard])
			folded[shard] = 0
		}
		hits[shard].Add(n)
	}
}

// orderByStripe counting-sorts the touched list by shard mod stripes, so
// that a walk over it meets each lock stripe in one run.
func (gr *grouping) orderByStripe() {
	var next [maxLockStripes + 1]int32
	for _, shard := range gr.touched {
		next[int(shard)%gr.stripes+1]++
	}
	for st := 1; st < gr.stripes; st++ {
		next[st] += next[st-1]
	}
	sorted := gr.spare[:len(gr.touched)]
	for _, shard := range gr.touched {
		st := int(shard) % gr.stripes
		sorted[next[st]] = shard
		next[st]++
	}
	gr.touched, gr.spare = sorted, gr.touched[:cap(gr.touched)]
}

// release zeroes the touched shards' counts, restoring the between-batches
// state the next routing pass relies on.
func (gr *grouping) release() {
	for _, shard := range gr.touched {
		gr.count[shard] = 0
	}
}

// routeBlock is the number of positions a routing pass touches before it
// probes. A probe branches on the slot it has just loaded, so probing
// position by position lets one router miss stall the next; touching a
// block's home slots first, in a loop with no branch on the loaded data,
// overlaps the block's misses instead, and the probes that follow hit the
// cache.
const routeBlock = 64

// routeEdges groups an edge batch by destination shard — gkeys and gvals
// hold each touched shard's run keys and run weights, in stream order — and
// returns the batch's total stream volume. A negative weight never joins a
// run, so it reaches the kernel as it arrived and is refused there.
//
// Per block of routeBlock runs, pass 1 finds the runs, sums their weights and
// touches each source's home slot, keeping its Mix64 (which the probe and
// the edge key share) in keys; pass 2 probes and marks them.
func (gr *grouping) routeEdges(g *GSketch, edges []stream.Edge) int64 {
	gr.begin(len(edges))
	var total int64
	var folded []int32         // gr.folded once a run of two or more is seen
	var at [routeBlock + 1]int // the block's run starts, then its end
	var home uint64
	nt, np := 0, 0
	for i := 0; i < len(edges); {
		k := 0
		for ; k < routeBlock && i < len(edges); k++ {
			e := edges[i]
			w, j := e.Increment(), i+1
			// w|weight ≥ 0: both the run so far and the next arrival are
			// non-negative.
			for ; j < len(edges) && edges[j].Src == e.Src && edges[j].Dst == e.Dst && w|edges[j].Weight >= 0; j++ {
				w = sketch.AddVolume(w, edges[j].Increment())
			}
			mixed := hashutil.Mix64(e.Src)
			home += g.router.home(mixed)
			at[k] = i
			gr.keys[np+k] = mixed
			gr.weights[np+k] = w
			total = sketch.AddVolume(total, w)
			i = j
		}
		at[k] = i
		for r := range k {
			e, mixed := edges[at[r]], gr.keys[np]
			shard := g.routeMixed(mixed, e.Src)
			nt = gr.mark(np, nt, shard, hashutil.EdgeKeyMixed(mixed, e.Dst))
			if n := at[r+1] - at[r]; n > 1 {
				folded = gr.folded
				folded[shard] += int32(n - 1)
			}
			np++
		}
	}
	gr.home = home
	gr.shardOf, gr.gshard, gr.gkeys, gr.gvals = gr.shardOf[:np], gr.gshard[:np], gr.gkeys[:np], gr.gvals[:np]
	gr.layout(nt, g.writeHits, folded)
	for p, shard := range gr.shardOf {
		k := gr.count[shard]
		gr.count[shard] = k + 1
		gr.gshard[k] = shard
		gr.gkeys[k] = gr.keys[p]
		gr.gvals[k] = gr.weights[p]
	}
	gr.release()
	return total
}

// routeQueries routes a query batch in input order, in the same two passes
// per block as routeEdges: shardOf and keys hold each query's shard and
// edge key, and the touched list the shards the batch reads.
func (gr *grouping) routeQueries(g *GSketch, qs []EdgeQuery) {
	gr.begin(len(qs))
	var home uint64
	nt := 0
	for lo := 0; lo < len(qs); lo += routeBlock {
		block := qs[lo:min(lo+routeBlock, len(qs))]
		for i, q := range block {
			mixed := hashutil.Mix64(q.Src)
			home += g.router.home(mixed)
			gr.keys[lo+i] = mixed
		}
		for i, q := range block {
			mixed := gr.keys[lo+i]
			nt = gr.mark(lo+i, nt, g.routeMixed(mixed, q.Src), hashutil.EdgeKeyMixed(mixed, q.Dst))
		}
	}
	gr.home = home
	gr.touched = gr.touched[:nt]
	for _, shard := range gr.touched {
		g.readHits[shard].Add(int64(gr.count[shard]))
		gr.count[shard] = 0
	}
}

// update folds the span of groups [j0, j1) into their shards in one bank
// kernel call over the span's positions. The caller owns locking and
// total-volume accounting.
func (gr *grouping) update(g *GSketch, j0, j1 int) {
	lo, hi := gr.off[j0], gr.off[j1]
	g.bank.UpdateRouted(gr.gshard[lo:hi], gr.gkeys[lo:hi], gr.gvals[lo:hi])
}

// estimate answers a routed query batch in one bank kernel call, in input
// order into gvals, and records each touched shard's ε·N_i bound, read in
// the same critical section as the counters so the pair is one consistent
// snapshot. The caller owns synchronization; assemble runs lock-free
// afterwards.
func (gr *grouping) estimate(g *GSketch) {
	g.bank.EstimateRouted(gr.shardOf, gr.keys, gr.gvals)
	for _, shard := range gr.touched {
		gr.bound[shard] = errorBound(g.bank.Count(int(shard)), g.bank.Width(int(shard)))
	}
}

// assemble writes the answered batch into out, one sequential sweep that
// reads position i's estimate from gvals and its provenance and bound from
// its shard.
func (gr *grouping) assemble(g *GSketch, out []Result, conf float64, streamTotal int64) {
	outlier := int32(-1)
	if g.outlierWidth > 0 {
		outlier = int32(len(g.leaves))
	}
	// Every field is written, because out is the caller's reused buffer.
	for i, shard := range gr.shardOf {
		r := &out[i]
		r.Estimate = gr.gvals[i]
		r.Partition, r.Outlier = int(shard), false
		if shard == outlier {
			r.Partition, r.Outlier = NoPartition, true
		}
		r.ErrorBound = gr.bound[shard]
		r.Confidence = conf
		r.StreamTotal = streamTotal
	}
}
