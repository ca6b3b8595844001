package sketch

import (
	"fmt"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// CountMin is the CountMin sketch of Cormode & Muthukrishnan: a depth×width
// grid of counters with one pairwise-independent hash per row. Estimates are
// the minimum over the key's d cells, never below the true count (for
// non-negative updates) and, with probability at least 1-e^{-d}, at most
// the true count + e*N/width.
//
// A CountMin either owns its storage (NewCountMin) or is a view
// of one shard of a Bank (Bank.Sketch), whose cells, coefficients and volume
// alias the bank's arena and tables. Every method works on both, and every
// kernel derives a key's cells the same way: the key reduced modulo the hash
// prime once, then the inlined rowCell per row of the flat (a, b) table.
//
// The zero value is unusable. CountMin is not safe for concurrent mutation.
type CountMin struct {
	width        int
	depth        int
	seed         uint64
	conservative bool

	rows  []rowCoef // one (a, b) per row; immutable
	cells []uint32  // row-major: cells[row*width + col]
	total *int64    // stream volume N added to this sketch
}

// NewCountMin builds a CountMin sketch with explicit dimensions. The seed
// fixes the hash family; two sketches built with equal (width, depth, seed)
// are mergeable.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("%w: width=%d depth=%d", ErrInvalidParams, width, depth)
	}
	cm := &CountMin{
		width: width,
		depth: depth,
		seed:  seed,
		rows:  make([]rowCoef, depth),
		cells: make([]uint32, width*depth),
		total: new(int64),
	}
	familyCoefs(cm.rows, make([]hashutil.PairwiseHash, depth), width, seed)
	return cm, nil
}

// SetConservative toggles conservative update: each increment raises only
// the cells that would otherwise fall below the new lower bound, tightening
// overestimation at no accuracy cost. Must be set before the first Update
// to keep estimates coherent, and never on a bank's view (NewBank fixes it).
func (cm *CountMin) SetConservative(on bool) { cm.conservative = on }

// Conservative reports whether conservative update is enabled. Conservative
// sketches are not counter-mergeable (per-key lower bounds are not
// additive), so merge planners check this before committing to a cell-wise
// fold.
func (cm *CountMin) Conservative() bool { return cm.conservative }

// Width returns the number of counters per row.
func (cm *CountMin) Width() int { return cm.width }

// Depth returns the number of rows (independent hash functions).
func (cm *CountMin) Depth() int { return cm.depth }

// Seed returns the hash-family seed.
func (cm *CountMin) Seed() uint64 { return cm.seed }

// Update adds count occurrences of key. Negative counts are rejected by
// panic: the CountMin estimate guarantee only holds in the cash-register
// (non-negative) model, which is the model of the paper.
func (cm *CountMin) Update(key uint64, count int64) {
	if count < 0 {
		panic("sketch: negative update in cash-register model")
	}
	if count == 0 {
		return
	}
	*cm.total = AddVolume(*cm.total, count)
	if cm.conservative {
		cm.updateConservative(key, count)
		return
	}
	xr := hashutil.Mod61(key)
	width, base := uint64(cm.width), uint64(0)
	for _, p := range cm.rows {
		i := base + rowCell(p.a, p.b, xr, width)
		cm.cells[i] = addSat32(cm.cells[i], count)
		base += width
	}
}

// updateBlock is the number of keys UpdateBatch reduces at a time: their
// residues wait on the stack while the rows are walked.
const updateBlock = 256

// UpdateBatch applies the batch in slice order, producing counters
// byte-identical to the equivalent sequence of Update calls. The plain
// (non-conservative) path works a block of keys at a time, row-major: the
// block's keys are reduced once, then each row's coefficients and segment
// of cells stay hot across the block. Saturating addition commutes, so the
// final counters equal those of key-major (sequential) order.
func (cm *CountMin) UpdateBatch(keys []uint64, counts []int64) {
	if len(keys) != len(counts) {
		panic("sketch: UpdateBatch slice length mismatch")
	}
	if cm.conservative {
		// Conservative update reads its own cells back per key, so order
		// must match sequential Update exactly.
		for i, key := range keys {
			cm.Update(key, counts[i])
		}
		return
	}
	*cm.total = AddVolume(*cm.total, checkedSum(counts))
	width, cells := uint64(cm.width), cm.cells
	var xr [updateBlock]uint64
	for len(keys) > 0 {
		n := min(len(keys), updateBlock)
		for i, key := range keys[:n] {
			xr[i] = hashutil.Mod61(key)
		}
		base := uint64(0)
		for _, p := range cm.rows {
			row := cells[base : base+width]
			for i, count := range counts[:n] {
				// A zero count adds nothing, as Update's early return.
				j := rowCell(p.a, p.b, xr[i], width)
				row[j] = addSat32(row[j], count)
			}
			base += width
		}
		keys, counts = keys[n:], counts[n:]
	}
}

// checkedSum totals a batch's counts, saturating, and panics on a negative
// one before any counter moves.
func checkedSum(counts []int64) int64 {
	var total int64
	for _, count := range counts {
		if count < 0 {
			panic("sketch: negative update in cash-register model")
		}
		total = AddVolume(total, count)
	}
	return total
}

// keyCells writes into idx the indices of one key's d cells in a sketch
// whose rows have the coefficients coef, are width wide and start at cell
// off. xr is the key reduced by hashutil.Mod61.
func keyCells(idx []uint64, coef []rowCoef, off, width, xr uint64) {
	for r, p := range coef {
		idx[r] = off + rowCell(p.a, p.b, xr, width)
		off += width
	}
}

// raiseCells is one conservative update over a key's cells: the key's new
// lower bound is min(cells) + count, and only cells below it are raised to
// it.
func raiseCells(cells []uint32, idx []uint64, count int64) {
	low := uint32(maxCell)
	for _, i := range idx {
		if v := cells[i]; v < low {
			low = v
		}
	}
	target := addSat32(low, count)
	for _, i := range idx {
		if cells[i] < target {
			cells[i] = target
		}
	}
}

// stackDepth is the depth up to which updateConservative's cell indices
// fit a stack buffer; only a deeper sketch pays an allocation per key.
const stackDepth = 16

func (cm *CountMin) updateConservative(key uint64, count int64) {
	var stack [stackDepth]uint64
	idx := indexBuffer(stack[:], cm.depth)[:cm.depth]
	keyCells(idx, cm.rows, 0, uint64(cm.width), hashutil.Mod61(key))
	raiseCells(cm.cells, idx, count)
}

// Estimate returns min over rows of the key's cell, the classic CountMin
// point estimate.
func (cm *CountMin) Estimate(key uint64) int64 {
	xr := hashutil.Mod61(key)
	width, base := uint64(cm.width), uint64(0)
	low := uint32(maxCell)
	for _, p := range cm.rows {
		if c := cm.cells[base+rowCell(p.a, p.b, xr, width)]; c < low {
			low = c
		}
		base += width
	}
	return int64(low)
}

// EstimateBatch answers a batch of point queries key-major with the field
// loads hoisted out of the loop and the running minimum kept in a register
// — unlike UpdateBatch, the read path gains nothing from row-major order
// (there is no row-segment write locality to exploit) and loses the
// register-resident min to per-row out[i] traffic. The values equal per-key
// Estimate exactly (min over the same d cells).
func (cm *CountMin) EstimateBatch(keys []uint64, out []int64) {
	if len(keys) != len(out) {
		panic("sketch: EstimateBatch slice length mismatch")
	}
	rows, cells, width := cm.rows, cm.cells, uint64(cm.width)
	for i, key := range keys {
		xr := hashutil.Mod61(key)
		low := uint32(maxCell)
		base := uint64(0)
		for _, p := range rows {
			if c := cells[base+rowCell(p.a, p.b, xr, width)]; c < low {
				low = c
			}
			base += width
		}
		out[i] = int64(low)
	}
}

// Count returns the total stream volume added to this sketch.
func (cm *CountMin) Count() int64 { return *cm.total }

// MemoryBytes reports the counter storage footprint.
func (cm *CountMin) MemoryBytes() int { return len(cm.cells) * CellSize }

// Merge adds other's counters into cm. Both sketches must have identical
// dimensions and seed (hence identical hash families); conservative-update
// sketches cannot be merged because per-key lower bounds are not additive.
func (cm *CountMin) Merge(other *CountMin) error {
	if cm.width != other.width || cm.depth != other.depth || cm.seed != other.seed {
		return fmt.Errorf("%w: merge of incompatible sketches (%dx%d seed %d vs %dx%d seed %d)",
			ErrInvalidParams, cm.depth, cm.width, cm.seed, other.depth, other.width, other.seed)
	}
	if cm.conservative || other.conservative {
		return fmt.Errorf("%w: conservative-update sketches are not mergeable", ErrInvalidParams)
	}
	for i, v := range other.cells {
		cm.cells[i] = addSat32(cm.cells[i], int64(v))
	}
	*cm.total = AddVolume(*cm.total, *other.total)
	return nil
}

// Clone returns a deep copy of the sketch that owns its storage, whether or
// not cm is a bank view.
func (cm *CountMin) Clone() *CountMin {
	cp := *cm
	cp.cells = append([]uint32(nil), cm.cells...)
	total := *cm.total
	cp.total = &total
	return &cp
}
