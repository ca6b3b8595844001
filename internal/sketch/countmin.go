package sketch

import (
	"fmt"
	"math/bits"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// CountMin is the CountMin sketch of Cormode & Muthukrishnan: a depth×width
// grid of counters with one pairwise-independent hash per row. Estimates are
// the minimum over the key's d cells, never below the true count (for
// non-negative updates) and, with probability at least 1-e^{-d}, at most
// the true count + e*N/width.
//
// The zero value is unusable; construct with NewCountMin or
// NewCountMinFromMemory. CountMin is not safe for concurrent mutation.
type CountMin struct {
	width        int
	depth        int
	seed         uint64
	conservative bool

	hashes []hashutil.PairwiseHash
	rows   []gatherRow // flattened hash coefficients for EstimateBatch (immutable)
	cells  []uint32    // row-major: cells[row*width + col]
	total  int64
}

// NewCountMin builds a CountMin sketch with explicit dimensions. The seed
// fixes the hash family; two sketches built with equal (width, depth, seed)
// are mergeable.
func NewCountMin(width, depth int, seed uint64) (*CountMin, error) {
	if width <= 0 || depth <= 0 {
		return nil, fmt.Errorf("%w: width=%d depth=%d", ErrInvalidParams, width, depth)
	}
	cm := &CountMin{
		width:  width,
		depth:  depth,
		seed:   seed,
		hashes: hashutil.NewPairwiseFamily(depth, width, seed),
		cells:  make([]uint32, width*depth),
	}
	// Flattened hash coefficients for EstimateBatch, built eagerly: the
	// gather runs under read locks from multiple goroutines, so it must
	// not initialize shared state lazily.
	cm.rows = make([]gatherRow, depth)
	for r, h := range cm.hashes {
		cm.rows[r].a, cm.rows[r].b = h.Params()
	}
	return cm, nil
}

// NewCountMinWithError builds a sketch from accuracy targets via
// DimsFromError.
func NewCountMinWithError(epsilon, delta float64, seed uint64) (*CountMin, error) {
	w, d, err := DimsFromError(epsilon, delta)
	if err != nil {
		return nil, err
	}
	return NewCountMin(w, d, seed)
}

// NewCountMinFromMemory builds the widest sketch of the given depth that
// fits in a byte budget.
func NewCountMinFromMemory(bytes, depth int, seed uint64) (*CountMin, error) {
	w, err := WidthFromMemory(bytes, depth)
	if err != nil {
		return nil, err
	}
	return NewCountMin(w, depth, seed)
}

// SetConservative toggles conservative update: each increment raises only
// the cells that would otherwise fall below the new lower bound, tightening
// overestimation at no accuracy cost. Must be set before the first Update
// to keep estimates coherent.
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
	cm.total += count
	if cm.conservative {
		cm.updateConservative(key, count)
		return
	}
	for r := 0; r < cm.depth; r++ {
		i := r*cm.width + cm.hashes[r].Hash(key)
		cm.cells[i] = addSat32(cm.cells[i], count)
	}
}

// UpdateBatch applies the batch in slice order, producing counters
// byte-identical to the equivalent sequence of Update calls. The plain
// (non-conservative) path hoists the field loads and the total
// accumulation out of the per-key loop so interface dispatch and bounds
// checks amortize across the batch.
func (cm *CountMin) UpdateBatch(keys []uint64, counts []int64) {
	if len(keys) != len(counts) {
		panic("sketch: UpdateBatch slice length mismatch")
	}
	if cm.conservative {
		// Conservative update reads its own cells back per key, so there is
		// nothing to hoist; order still matches sequential Update exactly.
		for i, key := range keys {
			cm.Update(key, counts[i])
		}
		return
	}
	var total int64
	for _, count := range counts {
		if count < 0 {
			panic("sketch: negative update in cash-register model")
		}
		total += count
	}
	// Row-major application: one hash-family member and one row segment of
	// cells stay hot across the whole batch. Saturating addition commutes,
	// so the final counters equal those of key-major (sequential) order.
	width, cells := cm.width, cm.cells
	for r := range cm.hashes {
		h := cm.hashes[r]
		row := cells[r*width : (r+1)*width]
		for i, key := range keys {
			count := counts[i]
			if count == 0 {
				continue
			}
			j := h.Hash(key)
			row[j] = addSat32(row[j], count)
		}
	}
	cm.total += total
}

func (cm *CountMin) updateConservative(key uint64, count int64) {
	// New lower bound for the key is min(cells) + count; only cells below
	// that bound are raised to it.
	min := int64(maxCell)
	// The usual depths fit a stack buffer; only a deeper sketch pays an
	// allocation per key.
	var buf [16]int
	idx := buf[:]
	if cm.depth > len(buf) {
		idx = make([]int, cm.depth)
	}
	idx = idx[:cm.depth]
	for r := 0; r < cm.depth; r++ {
		i := r*cm.width + cm.hashes[r].Hash(key)
		idx[r] = i
		if v := int64(cm.cells[i]); v < min {
			min = v
		}
	}
	target := min + count
	for _, i := range idx {
		if int64(cm.cells[i]) < target {
			if target > maxCell {
				cm.cells[i] = maxCell
			} else {
				cm.cells[i] = uint32(target)
			}
		}
	}
}

// Estimate returns min over rows of the key's cell, the classic CountMin
// point estimate.
func (cm *CountMin) Estimate(key uint64) int64 {
	min := uint32(maxCell)
	for r := 0; r < cm.depth; r++ {
		v := cm.cells[r*cm.width+cm.hashes[r].Hash(key)]
		if v < min {
			min = v
		}
	}
	return int64(min)
}

// EstimateBatch answers a batch of point queries key-major with the field
// loads hoisted out of the loop and the running minimum kept in a register
// — unlike UpdateBatch, the read path gains nothing from row-major order
// (there is no row-segment write locality to exploit) and loses the
// register-resident min to per-row out[i] traffic. Each key is reduced
// modulo the hash prime once and shared across the d row hashes, and the
// row-hash arithmetic is hand-inlined from the (a, b) coefficients —
// PairwiseHash.Hash is past the inlining budget, and d calls per key were
// the largest single cost of the batched read path. The values equal
// per-key Estimate exactly (min over the same d cells).
func (cm *CountMin) EstimateBatch(keys []uint64, out []int64) {
	if len(keys) != len(out) {
		panic("sketch: EstimateBatch slice length mismatch")
	}
	rows := cm.rows
	width, cells := cm.width, cm.cells
	w64 := uint64(width)
	for i, key := range keys {
		xr := hashutil.Mod61(key)
		min := uint32(maxCell)
		base := 0
		for _, p := range rows {
			// (a·xr + b) mod 2^61-1 via 2^64 ≡ 8: hi·8 cannot overflow
			// (hi < 2^58) and the three reduced terms sum below 2^63, so a
			// single final Mod61 lands on the same canonical residue as
			// PairwiseHash.Hash. Spelled out here because the composed
			// helper is past the inlining budget and a call per row per
			// key dominates the gather.
			hi, lo := bits.Mul64(p.a, xr)
			v := hashutil.Mod61(hashutil.Mod61(hi<<3) + hashutil.Mod61(lo) + p.b)
			vhi, vlo := bits.Mul64(v, w64)
			if c := cells[base+int(vhi<<3|vlo>>61)]; c < min {
				min = c
			}
			base += width
		}
		out[i] = int64(min)
	}
}

// gatherRow is one row's hash coefficients, flattened out of PairwiseHash
// for the hand-inlined gather loop. Built once in NewCountMin and
// immutable afterwards, so concurrent readers share it freely.
type gatherRow struct {
	a, b uint64
}

// Count returns the total stream volume added to this sketch.
func (cm *CountMin) Count() int64 { return cm.total }

// MemoryBytes reports the counter storage footprint.
func (cm *CountMin) MemoryBytes() int { return len(cm.cells) * CellSize }

// Reset zeroes all counters.
func (cm *CountMin) Reset() {
	for i := range cm.cells {
		cm.cells[i] = 0
	}
	cm.total = 0
}

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
	cm.total += other.total
	return nil
}

// Clone returns a deep copy of the sketch.
func (cm *CountMin) Clone() *CountMin {
	cp := *cm
	cp.cells = make([]uint32, len(cm.cells))
	copy(cp.cells, cm.cells)
	cp.hashes = make([]hashutil.PairwiseHash, len(cm.hashes))
	copy(cp.hashes, cm.hashes)
	return &cp
}

var _ Synopsis = (*CountMin)(nil)
