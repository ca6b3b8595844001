package core

import (
	"math/bits"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// Router is the vertex→partition map H of the paper, stored as a flat
// open-addressing hash table with power-of-two capacity and linear probing.
// Keys and values live in separate parallel arrays so the probe loop — the
// per-edge routing lookup on the ingest hot path — walks a dense slab of
// 8-byte keys and touches the value array only on a hit. Key 0 cannot act
// as the empty-slot sentinel for itself, so it is carried in a dedicated
// side slot.
//
// The table is write-once: it is filled during sketch construction or
// deserialization and never mutated afterwards, which is what makes
// lock-free concurrent routing reads safe (see Concurrent).
type Router struct {
	keys []uint64 // 0 marks an empty slot
	vals []int32
	mask uint64
	n    int

	hasZero bool // vertex id 0, stored out of line
	zeroVal int32
}

// routerSlotBytes is the in-memory size of one table slot (8-byte key +
// 4-byte value).
const routerSlotBytes = 12

// routerMaxLoad is the numerator of the maximum load factor (x/16): the
// table grows once it is more than 13/16 ≈ 81% full, keeping linear-probe
// chains short.
const routerMaxLoad = 13

// NewRouter returns an empty router pre-sized for n entries.
func NewRouter(n int) *Router {
	capacity := 8
	for capacity*routerMaxLoad < n*16 {
		capacity <<= 1
	}
	return newRouterCap(capacity)
}

func newRouterCap(capacity int) *Router {
	if capacity&(capacity-1) != 0 {
		capacity = 1 << bits.Len(uint(capacity))
	}
	return &Router{
		keys: make([]uint64, capacity),
		vals: make([]int32, capacity),
		mask: uint64(capacity - 1),
	}
}

// buildRouter fills a flat table from the partitioner's assignment: keys
// ascending beside their partition indices. Linear-probe placement depends
// on insertion order, so filling in ascending key order is what keeps the
// slot layout — and thus serialized output — the same for the same
// assignment, however it was computed.
func buildRouter(keys []uint64, vals []int32) *Router {
	r := NewRouter(len(keys))
	for i, k := range keys {
		r.Insert(k, vals[i])
	}
	return r
}

// Insert adds or overwrites the partition index of key. val must be
// non-negative.
func (r *Router) Insert(key uint64, val int32) {
	if val < 0 {
		panic("core: negative partition index in router")
	}
	if key == 0 {
		if !r.hasZero {
			r.hasZero = true
			r.n++
		}
		r.zeroVal = val
		return
	}
	if (r.n+1)*16 > len(r.keys)*routerMaxLoad {
		r.grow()
	}
	i := hashutil.Mix64(key) & r.mask
	for {
		switch r.keys[i] {
		case 0:
			r.keys[i] = key
			r.vals[i] = val
			r.n++
			return
		case key:
			r.vals[i] = val
			return
		}
		i = (i + 1) & r.mask
	}
}

// Get returns the partition index of key and whether the key is present.
func (r *Router) Get(key uint64) (int32, bool) {
	return r.getMixed(hashutil.Mix64(key), key)
}

// getMixed is Get with the Mix64 of the key precomputed, so the batch
// grouping can share one mixing with edge-key derivation.
func (r *Router) getMixed(mixed, key uint64) (int32, bool) {
	if key == 0 {
		return r.zeroVal, r.hasZero
	}
	i := mixed & r.mask
	for {
		switch r.keys[i] {
		case key:
			return r.vals[i], true
		case 0:
			return 0, false
		}
		i = (i + 1) & r.mask
	}
}

// home loads the key and the value of the slot a probe for a key of Mix64
// mixed starts at, and returns a sum of them for the caller to keep. It
// makes no branch on what it loads: the batch routing pass calls it for a
// block of keys before probing them, so their cache misses overlap.
func (r *Router) home(mixed uint64) uint64 {
	i := mixed & r.mask
	return r.keys[i] + uint64(r.vals[i])
}

func (r *Router) grow() {
	oldKeys, oldVals := r.keys, r.vals
	next := newRouterCap(len(oldKeys) * 2)
	next.hasZero, next.zeroVal = r.hasZero, r.zeroVal
	if next.hasZero {
		next.n = 1
	}
	for i, k := range oldKeys {
		if k != 0 {
			next.Insert(k, oldVals[i])
		}
	}
	*r = *next
}

// Len returns the number of routed vertices.
func (r *Router) Len() int { return r.n }

// Cap returns the allocated slot count.
func (r *Router) Cap() int { return len(r.keys) }

// Bytes reports the real table footprint: capacity × slot size.
func (r *Router) Bytes() int { return len(r.keys) * routerSlotBytes }

// Range calls fn for every (vertex, partition) pair in slot order (a fixed,
// deterministic order for a given insertion history; the zero vertex, if
// routed, comes first). Returning false stops the iteration.
func (r *Router) Range(fn func(key uint64, val int32) bool) {
	if r.hasZero && !fn(0, r.zeroVal) {
		return
	}
	for i, k := range r.keys {
		if k != 0 && !fn(k, r.vals[i]) {
			return
		}
	}
}
