package core

import (
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// grouping is one routed batch in flat shard-major layout, the single
// mechanism behind both batch directions: UpdateBatch scatters an edge
// batch's (key, weight) groups into the shards, EstimateBatch gathers a
// query batch's estimates out of them.
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
// list; a prefix sum over that list lays the groups out; a placement pass —
// a stable counting sort, so every group keeps stream order — writes shard,
// key and weight group-major. Nothing walks the whole shard range: the
// per-shard counts are all zero between batches and only the touched
// entries are counted, summed, hit-counted and cleared again, so a batch
// costs O(batch + touched shards) however finely the sketch is partitioned
// — a one-edge batch on 16 k partitions touches one counter, not 16 k. All
// buffers are reused across batches: steady-state batches allocate nothing
// beyond EstimateBatch's caller-visible []Result, and not that either when
// the caller hands Concurrent.AppendEstimates a buffer of its own.
//
// The shard-major arrays are what the sketch bank's routed kernels take: a
// span of groups — the whole batch for a bare GSketch, one lock stripe's
// groups for Concurrent — is one contiguous slice of positions and one
// kernel call, so a batch makes as many calls as it takes locks, not one
// per touched shard (sketch.Bank has the per-position cost model).
//
// Only the immutable router is read while grouping, so it runs lock-free
// beside shard-local counter writes; Concurrent asks for the touched list
// ordered by lock stripe so that applying the groups takes each stripe lock
// at most once per batch.
type grouping struct {
	// stripes is the lock-stripe count the touched list is ordered by;
	// 1 or less keeps first-touch order (no locks to amortize).
	stripes int

	// Per batch position, in input order.
	shardOf []int32  // shard the position routes to
	keys    []uint64 // the position's edge key
	weights []int64  // its run's weight sum (edge batches only)
	slot    []int32  // its offset into gkeys/gvals (query batches only)

	// Shard-major: group j of touched occupies [off[j], off[j+1]).
	gshard []int32 // the shard again, per position: the bank kernels' input
	gkeys  []uint64
	gvals  []int64 // weights of an edge batch, estimates of a query batch
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
		gr.slot = make([]int32, n)
		gr.gshard = make([]int32, n)
		gr.gkeys = make([]uint64, n)
		gr.gvals = make([]int64, n)
		gr.off = make([]int32, n+1)
		gr.touched = make([]int32, n)
		gr.spare = make([]int32, n)
	}
	gr.shardOf = gr.shardOf[:n]
	gr.keys = gr.keys[:n]
	gr.slot = gr.slot[:n]
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

// layout closes the routing pass: it orders the nt touched shards by lock
// stripe, turns their counts into group offsets (count becomes the
// placement cursor) and folds the arrivals each group stands for — its
// count, plus folded when the batch had runs (folded is nil otherwise) —
// into the direction's routing stats (the drift signal of adaptive
// repartitioning), one atomic add per touched shard.
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

// routeEdges groups an edge batch by destination shard — gkeys and gvals
// hold each touched shard's run keys and run weights, in stream order — and
// returns the batch's total stream volume. A negative weight never joins a
// run, so it reaches the kernel as it arrived and is refused there.
func (gr *grouping) routeEdges(g *GSketch, edges []stream.Edge) int64 {
	gr.begin(len(edges))
	var total int64
	var folded []int32 // gr.folded once a run of two or more is seen
	nt, np := 0, 0
	for i := 0; i < len(edges); np++ {
		e := edges[i]
		w, j := e.Increment(), i+1
		// w|weight ≥ 0: both the run so far and the next arrival are
		// non-negative.
		for ; j < len(edges) && edges[j].Src == e.Src && edges[j].Dst == e.Dst && w|edges[j].Weight >= 0; j++ {
			w = sketch.AddVolume(w, edges[j].Increment())
		}
		// One Mix64 of the source serves both the routing probe and the
		// edge-key derivation.
		mixed := hashutil.Mix64(e.Src)
		shard := g.routeMixed(mixed, e.Src)
		nt = gr.mark(np, nt, shard, hashutil.EdgeKeyMixed(mixed, e.Dst))
		if j > i+1 {
			folded = gr.folded
			folded[shard] += int32(j - i - 1)
		}
		gr.weights[np] = w
		total = sketch.AddVolume(total, w)
		i = j
	}
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

// routeQueries groups a query batch by answering shard: gkeys holds each
// touched shard's keys and slot where every position's estimate will land
// in gvals.
func (gr *grouping) routeQueries(g *GSketch, qs []EdgeQuery) {
	gr.begin(len(qs))
	nt := 0
	for i, q := range qs {
		mixed := hashutil.Mix64(q.Src)
		nt = gr.mark(i, nt, g.routeMixed(mixed, q.Src), hashutil.EdgeKeyMixed(mixed, q.Dst))
	}
	gr.layout(nt, g.readHits, nil)
	for i, shard := range gr.shardOf {
		k := gr.count[shard]
		gr.count[shard] = k + 1
		gr.gshard[k] = shard
		gr.gkeys[k] = gr.keys[i]
		gr.slot[i] = k
	}
	gr.release()
}

// update folds the span of groups [j0, j1) into their shards in one bank
// kernel call over the span's positions. The caller owns locking and
// total-volume accounting.
func (gr *grouping) update(g *GSketch, j0, j1 int) {
	lo, hi := gr.off[j0], gr.off[j1]
	g.bank.UpdateRouted(gr.gshard[lo:hi], gr.gkeys[lo:hi], gr.gvals[lo:hi])
}

// estimate answers the span of groups [j0, j1) and records each touched
// shard's ε·N_i bound, read in the same critical section as the counters so
// the pair is one consistent snapshot. The caller owns synchronization;
// assemble runs lock-free afterwards.
func (gr *grouping) estimate(g *GSketch, j0, j1 int) {
	lo, hi := gr.off[j0], gr.off[j1]
	g.bank.EstimateRouted(gr.gshard[lo:hi], gr.gkeys[lo:hi], gr.gvals[lo:hi])
	for _, shard := range gr.touched[j0:j1] {
		gr.bound[shard] = errorBound(g.bank.Count(int(shard)), g.bank.Width(int(shard)))
	}
}

// assemble fans the gathered estimates back out to input order. out is
// written by one sequential sweep — streaming 48-byte stores beat the
// read-for-ownership misses of a scatter through saved positions — that
// reads position i's estimate from its slot and its provenance and bound
// from its shard.
func (gr *grouping) assemble(g *GSketch, out []Result, conf float64, streamTotal int64) {
	outlier := int32(-1)
	if g.outlierWidth > 0 {
		outlier = int32(len(g.leaves))
	}
	for i, shard := range gr.shardOf {
		r := Result{
			Estimate:    gr.gvals[gr.slot[i]],
			Partition:   int(shard),
			ErrorBound:  gr.bound[shard],
			Confidence:  conf,
			StreamTotal: streamTotal,
		}
		if shard == outlier {
			r.Partition, r.Outlier = NoPartition, true
		}
		out[i] = r
	}
}
