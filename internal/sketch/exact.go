package sketch

// Exact is a map-backed exact counter implementing Synopsis. It is the
// ground-truth oracle for tests and experiment harnesses, and a degenerate
// "sketch" for tiny streams.
type Exact struct {
	counts map[uint64]int64
	total  int64
}

// NewExact returns an empty exact counter.
func NewExact() *Exact {
	return &Exact{counts: make(map[uint64]int64)}
}

// Update adds count occurrences of key.
func (e *Exact) Update(key uint64, count int64) {
	if count < 0 {
		panic("sketch: negative update in cash-register model")
	}
	if count == 0 {
		return
	}
	e.counts[key] = AddVolume(e.counts[key], count)
	e.total = AddVolume(e.total, count)
}

// UpdateBatch applies the batch in slice order against a single map load.
func (e *Exact) UpdateBatch(keys []uint64, counts []int64) {
	if len(keys) != len(counts) {
		panic("sketch: UpdateBatch slice length mismatch")
	}
	m := e.counts
	var total int64
	for i, key := range keys {
		count := counts[i]
		if count < 0 {
			panic("sketch: negative update in cash-register model")
		}
		if count == 0 {
			continue
		}
		m[key] = AddVolume(m[key], count)
		total = AddVolume(total, count)
	}
	e.total = AddVolume(e.total, total)
}

// Estimate returns the exact accumulated count of key.
func (e *Exact) Estimate(key uint64) int64 { return e.counts[key] }

// EstimateBatch answers a batch of point queries against a single map load.
func (e *Exact) EstimateBatch(keys []uint64, out []int64) {
	if len(keys) != len(out) {
		panic("sketch: EstimateBatch slice length mismatch")
	}
	m := e.counts
	for i, key := range keys {
		out[i] = m[key]
	}
}

// Count returns the total stream volume added.
func (e *Exact) Count() int64 { return e.total }

// Distinct returns the number of distinct keys observed.
func (e *Exact) Distinct() int { return len(e.counts) }

// MemoryBytes approximates the footprint of the counter table.
func (e *Exact) MemoryBytes() int { return len(e.counts) * 40 }

// Reset clears the counter.
func (e *Exact) Reset() {
	e.counts = make(map[uint64]int64)
	e.total = 0
}

// Range calls fn for every (key, count) pair; iteration order is undefined.
// Returning false from fn stops the iteration.
func (e *Exact) Range(fn func(key uint64, count int64) bool) {
	for k, v := range e.counts {
		if !fn(k, v) {
			return
		}
	}
}

var _ Synopsis = (*Exact)(nil)
