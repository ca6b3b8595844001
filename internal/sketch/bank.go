package sketch

import (
	"fmt"
	"math"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// Bank is N CountMin sketches of one depth laid out for the partitioned
// estimator, whose batches touch hundreds of small sketches at a time: one
// cell arena (shard-major, each shard's cells in CountMin's row-major
// order) and flat per-shard tables. Shard i is exactly the sketch
// NewCountMin(widths[i], depth, seeds[i]) builds — same coefficients, so
// same cells, estimates, ε·N_i bound and serialized bytes — and Sketch(i) is
// a *CountMin over it.
//
// With one heap object per partition, reaching a partition's counters is a
// chain of dependent cache misses (interface, struct, coefficient slice,
// cells) paid for every group of a batch, and the batches of a fine
// partitioning are mostly groups of one or two keys. Here a routed position
// costs one independent load from each small table, then d cell accesses,
// and the kernels take a run of positions in two passes — every position's
// cell indices, then every cell access — so each pass is a loop of
// independent iterations whose misses overlap.
//
// spans and coef are immutable; cells and totals of different shards are
// disjoint, so shards are independent update domains as separate sketches
// are, and the read kernel may run beside writers of other shards.
type Bank struct {
	depth        int
	conservative bool

	cells  []uint32  // the arena
	spans  []span    // per shard: where its cells are
	coef   []rowCoef // per shard: its d row hashes, at coef[shard*d:][:d]
	totals []int64   // per shard: local stream volume N_i
	views  []CountMin
}

// span locates one shard's cells; 64-bit offsets cover any arena.
type span struct {
	off, width uint64
}

// maxArenaCells bounds the arena so that its length and byte size fit int.
const maxArenaCells = math.MaxInt / CellSize

// NewBank builds a bank of len(widths) empty sketches: shard i is
// widths[i] columns wide and draws its row hashes from seeds[i]; all share
// depth and the conservative-update mode.
func NewBank(widths []int, depth int, seeds []uint64, conservative bool) (*Bank, error) {
	if len(seeds) != len(widths) {
		return nil, fmt.Errorf("%w: %d widths but %d seeds", ErrInvalidParams, len(widths), len(seeds))
	}
	b, cells, err := newBankTables(widths, depth)
	if err != nil {
		return nil, err
	}
	b.conservative = conservative
	b.bind(make([]uint32, cells), seeds)
	return b, nil
}

// newBankTables lays the shards out and returns the arena's cell count.
// Cells and coefficients, the two allocations that scale with width×depth,
// are attached by bind: a reader defers them until the stream has
// delivered that many bytes.
func newBankTables(widths []int, depth int) (*Bank, uint64, error) {
	if len(widths) == 0 || depth <= 0 {
		return nil, 0, fmt.Errorf("%w: bank of %d shards, depth %d", ErrInvalidParams, len(widths), depth)
	}
	b := &Bank{
		depth:  depth,
		spans:  make([]span, len(widths)),
		totals: make([]int64, len(widths)),
		views:  make([]CountMin, len(widths)),
	}
	var off uint64
	for i, w := range widths {
		if w <= 0 || uint64(w) > (maxArenaCells-off)/uint64(depth) {
			return nil, 0, fmt.Errorf("%w: shard %d width %d", ErrInvalidParams, i, w)
		}
		b.spans[i] = span{off: off, width: uint64(w)}
		off += uint64(w) * uint64(depth)
	}
	return b, off, nil
}

// bind attaches the arena, draws every shard's coefficients from its seed
// and points the views at their slices of both.
func (b *Bank) bind(cells []uint32, seeds []uint64) {
	d := b.depth
	b.cells = cells
	b.coef = make([]rowCoef, len(b.spans)*d)
	fam := make([]hashutil.PairwiseHash, d)
	for i, sp := range b.spans {
		rows := b.coef[i*d : (i+1)*d : (i+1)*d]
		familyCoefs(rows, fam, int(sp.width), seeds[i])
		end := sp.off + sp.width*uint64(d)
		b.views[i] = CountMin{
			width:        int(sp.width),
			depth:        d,
			seed:         seeds[i],
			conservative: b.conservative,
			rows:         rows,
			cells:        cells[sp.off:end:end],
			total:        &b.totals[i],
		}
	}
}

// Conservative reports whether the shards use conservative update.
func (b *Bank) Conservative() bool { return b.conservative }

// Sketch returns shard i as a CountMin whose storage aliases the bank — the
// handle for single-key calls, merging and cloning.
func (b *Bank) Sketch(i int) *CountMin { return &b.views[i] }

// Width returns the column count of shard i.
func (b *Bank) Width(i int) int { return int(b.spans[i].width) }

// Count returns the local stream volume N_i of shard i.
func (b *Bank) Count(i int) int64 { return b.totals[i] }

// MemoryBytes reports the arena's footprint, fixed at construction.
func (b *Bank) MemoryBytes() int { return len(b.cells) * CellSize }

// routedBlock is the number of cell indices a kernel computes before it
// uses them: some fifty positions at depth 5, more misses than the processor
// keeps in flight. It stays small because the buffer is a stack array, zeroed
// on every call, and a batch makes up to one call per lock stripe.
const routedBlock = 256

// routedCells is the first pass of both kernels: it writes the arena
// indices of each position's d cells into idx, reading only the flat
// tables. It returns the number of positions it had room for.
func (b *Bank) routedCells(idx []uint64, shards []int32, keys []uint64) int {
	d := b.depth
	n := min(len(shards), len(idx)/d)
	for i, s := range shards[:n] {
		sp := b.spans[s]
		keyCells(idx[i*d:i*d+d], b.coef[int(s)*d:int(s)*d+d], sp.off, sp.width, hashutil.Mod61(keys[i]))
	}
	return n
}

// indexBuffer returns a kernel call's index buffer: the caller's stack
// array, unless one position's indices would not fit it.
func indexBuffer(stack []uint64, depth int) []uint64 {
	if depth > len(stack) {
		return make([]uint64, depth)
	}
	return stack
}

// UpdateRouted adds counts[i] occurrences of keys[i] to shard shards[i] for
// every position of a run, leaving cells and volumes as the calls
// Sketch(shards[i]).Update(keys[i], counts[i]) in position order would. A
// negative count panics before anything is written. The caller owns
// synchronization for every shard named.
//
// A position may stand for several arrivals of its key — core's grouping
// hands over each streak of adjacent arrivals of one edge as one position
// with the streak's saturating count sum — because one update by a+b
// leaves the cells an update by a then b leaves, in either mode: saturating
// adds compose, and a conservative raise by a lifts the key's minimum m to
// exactly m+a, so raising again by b gives max(c, m+a+b) per cell, as one
// raise by a+b does (both saturating at 2³²−1).
//
// Plain sketches take the run block by block in two passes (saturating adds
// commute). Conservative-update sketches read their own cells back, so they
// go position by position; callers keep each shard's positions in stream
// order. A volume is summed, saturating, once per streak of equal shards,
// so a shard-major run touches each N_i once.
func (b *Bank) UpdateRouted(shards []int32, keys []uint64, counts []int64) {
	if len(shards) != len(keys) || len(keys) != len(counts) {
		panic("sketch: UpdateRouted slice length mismatch")
	}
	if len(shards) == 0 {
		return
	}
	checkedSum(counts)
	var stack [routedBlock]uint64
	idx, d, cells := indexBuffer(stack[:], b.depth), b.depth, b.cells
	if b.conservative {
		idx = idx[:d] // one position at a time
	}
	for lo := 0; lo < len(shards); {
		n := b.routedCells(idx, shards[lo:], keys[lo:])
		for i, count := range counts[lo : lo+n] {
			if at := idx[i*d : i*d+d]; b.conservative {
				raiseCells(cells, at, count)
			} else {
				for _, c := range at {
					cells[c] = addSat32(cells[c], count)
				}
			}
		}
		lo += n
	}
	cur, sum := shards[0], int64(0)
	for i, s := range shards {
		if s != cur {
			b.totals[cur] = AddVolume(b.totals[cur], sum)
			cur, sum = s, 0
		}
		sum = AddVolume(sum, counts[i])
	}
	b.totals[cur] = AddVolume(b.totals[cur], sum)
}

// EstimateRouted writes Sketch(shards[i]).Estimate(keys[i]) into out[i] for
// every position of a run, block by block in two passes. It writes nothing
// else; the caller holds off writers of every shard named.
func (b *Bank) EstimateRouted(shards []int32, keys []uint64, out []int64) {
	if len(shards) != len(keys) || len(keys) != len(out) {
		panic("sketch: EstimateRouted slice length mismatch")
	}
	var stack [routedBlock]uint64
	idx, d, cells := indexBuffer(stack[:], b.depth), b.depth, b.cells
	for lo := 0; lo < len(shards); {
		n := b.routedCells(idx, shards[lo:], keys[lo:])
		for i := range out[lo : lo+n] {
			low := uint32(maxCell)
			for _, c := range idx[i*d : i*d+d] {
				if v := cells[c]; v < low {
					low = v
				}
			}
			out[lo+i] = int64(low)
		}
		lo += n
	}
}
