// Package vstats derives the per-vertex statistics that drive sketch
// partitioning (§4 of the paper) from a data sample and, optionally, a
// query-workload sample:
//
//   - f̃v(m): the estimated relative vertex frequency — the summed weight of
//     sampled edges emanating from m (Eq. 2, estimated on the sample);
//   - d̃(m): the estimated out-degree — distinct out-edges of m in the
//     sample (Eq. 3);
//   - w̃(n): the relative query weight of n in the workload sample, with
//     Laplace (add-one) smoothing so vertices never seen in the workload
//     keep a nonzero weight (§6.4).
//
// The paper's key insight is that these vertex-level statistics are cheap,
// compact and — by local similarity — a reliable proxy for the unknowable
// per-edge frequencies.
package vstats

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// VertexStat aggregates the partitioning statistics of one source vertex.
type VertexStat struct {
	ID uint64
	// F is f̃v: summed sampled out-edge weight. Always > 0 for a vertex
	// present in the sample.
	F float64
	// D is d̃: distinct sampled out-edges. Always ≥ 1 for a present vertex.
	D float64
	// W is w̃: the (smoothed) relative workload weight. 1 until a workload
	// sample is applied.
	W float64
}

// AvgEdgeFreq returns f̃v(m)/d̃(m), the estimated average frequency of the
// edges emanating from the vertex — the scenario-A sort key.
func (v VertexStat) AvgEdgeFreq() float64 { return v.F / v.D }

// Stats holds per-vertex statistics for every distinct source vertex of a
// data sample, in order of first appearance.
type Stats struct {
	vertices []VertexStat
	index    srcTable // vertex id → position in vertices
	totalF   float64
	hasWork  bool
}

// FromSample computes vertex statistics from a data sample. Zero-weight
// sample edges count as weight 1, matching the paper's default frequency.
//
// It is a few sequential passes over flat slices, 12 bytes per sample edge:
// sources are interned through an open-addressing table while f̃v is summed
// (one pass, in sample order, so vertices keep their order of first
// appearance and every float sum its order of addition), destinations are
// scattered into one contiguous segment per source (CSR), and d̃ is the
// number of distinct values in each sorted segment.
func FromSample(sample []stream.Edge) *Stats {
	if uint64(len(sample)) > math.MaxUint32 {
		// Vertex positions are held as uint32; a sample has at most as many
		// sources as edges.
		panic(fmt.Sprintf("vstats: sample of %d edges exceeds the %d supported", len(sample), uint32(math.MaxUint32)))
	}
	// How many sources the sample has is not known yet; an eighth of its
	// edges is where the table and the per-vertex slices start, and all of
	// them grow.
	guess := len(sample) / 8
	s := &Stats{
		vertices: make([]VertexStat, 0, guess),
		index:    newSrcTable(guess),
	}

	// Pass 1: intern sources, sum f̃v, count each vertex's sample edges.
	owner := make([]uint32, len(sample)) // sample position → vertex position
	ends := make([]int, 0, guess)        // edges per vertex; segment ends after the scatter
	for i, e := range sample {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		v, fresh := s.index.intern(e.Src)
		if fresh {
			s.vertices = append(s.vertices, VertexStat{ID: e.Src, W: 1})
			ends = append(ends, 0)
		}
		owner[i] = v
		ends[v]++
		s.vertices[v].F += float64(w)
		s.totalF += float64(w)
	}

	// Pass 2: turn the counts into segment starts, then scatter the
	// destinations. Advancing a vertex's start as its cursor leaves it at
	// the segment's end, so one slice serves as both.
	sum := 0
	for v, n := range ends {
		ends[v] = sum
		sum += n
	}
	if sum != len(sample) {
		panic("vstats: internal error: vertex segments do not cover the sample")
	}
	dsts := make([]uint64, len(sample))
	for i, e := range sample {
		v := owner[i]
		dsts[ends[v]] = e.Dst
		ends[v]++
	}

	// Pass 3: d̃ per vertex, from its sorted segment.
	start := 0
	for v, end := range ends {
		s.vertices[v].D = float64(distinct(dsts[start:end]))
		start = end
	}
	return s
}

// distinct sorts seg in place and returns how many different values it
// holds.
func distinct(seg []uint64) int {
	if len(seg) < 2 {
		return len(seg)
	}
	slices.Sort(seg)
	n := 1
	for i := 1; i < len(seg); i++ {
		if seg[i] != seg[i-1] {
			n++
		}
	}
	return n
}

// srcTable interns source vertex ids: a flat open-addressing hash table
// with power-of-two capacity and linear probing, like core.Router, mapping
// an id to its position in Stats.vertices. ref holds position+1 so that 0
// marks an empty slot and vertex id 0 needs no side slot.
type srcTable struct {
	slots []srcSlot
	mask  uint64
	n     int
}

type srcSlot struct {
	key uint64
	ref uint32
}

// srcTableMaxLoad is the numerator of the maximum load factor (x/16), as in
// core.Router.
const srcTableMaxLoad = 13

// newSrcTable returns a table that holds n ids before it first grows.
func newSrcTable(n int) srcTable {
	capacity := 8
	for capacity*srcTableMaxLoad < n*16 {
		capacity <<= 1
	}
	return srcTable{slots: make([]srcSlot, capacity), mask: uint64(capacity - 1)}
}

// intern returns the position of key, assigning the next free one (the
// number of ids seen so far) if key is new.
func (t *srcTable) intern(key uint64) (pos uint32, fresh bool) {
	i := hashutil.Mix64(key) & t.mask
	for {
		switch sl := &t.slots[i]; {
		case sl.ref == 0:
			if (t.n+1)*16 > len(t.slots)*srcTableMaxLoad {
				t.grow()
				return t.intern(key)
			}
			t.n++
			sl.key, sl.ref = key, uint32(t.n)
			return sl.ref - 1, true
		case sl.key == key:
			return sl.ref - 1, false
		}
		i = (i + 1) & t.mask
	}
}

// lookup returns the position of key and whether it was interned.
func (t *srcTable) lookup(key uint64) (int, bool) {
	i := hashutil.Mix64(key) & t.mask
	for {
		switch sl := t.slots[i]; {
		case sl.ref == 0:
			return 0, false
		case sl.key == key:
			return int(sl.ref - 1), true
		}
		i = (i + 1) & t.mask
	}
}

func (t *srcTable) grow() {
	old := t.slots
	t.slots = make([]srcSlot, 2*len(old))
	t.mask = uint64(len(t.slots) - 1)
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		i := hashutil.Mix64(sl.key) & t.mask
		for t.slots[i].ref != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = sl
	}
}

// ApplyWorkload folds a query-workload sample into the statistics. Each
// workload edge contributes one query occurrence to its source vertex;
// weights are Laplace-smoothed over the data-sample vertex set:
//
//	w̃(n) = (count(n) + 1) / (|W| + |V|)
//
// so vertices absent from the workload sample keep weight 1/(|W|+|V|) > 0.
// Workload sources that never occur in the data sample are ignored here;
// at query time such vertices route to the outlier sketch anyway.
func (s *Stats) ApplyWorkload(workload []stream.Edge) {
	denom := float64(len(workload)) + float64(len(s.vertices))
	if denom == 0 {
		return
	}
	counts := make([]int64, len(s.vertices)) // by vertex position
	for _, q := range workload {
		if i, ok := s.index.lookup(q.Src); ok {
			counts[i]++
		}
	}
	for i := range s.vertices {
		s.vertices[i].W = (float64(counts[i]) + 1) / denom
	}
	s.hasWork = true
}

// HasWorkload reports whether ApplyWorkload has been called.
func (s *Stats) HasWorkload() bool { return s.hasWork }

// Len returns the number of distinct source vertices in the sample.
func (s *Stats) Len() int { return len(s.vertices) }

// TotalF returns Σ f̃v over all vertices.
func (s *Stats) TotalF() float64 { return s.totalF }

// Get returns the statistics of one vertex.
func (s *Stats) Get(id uint64) (VertexStat, bool) {
	i, ok := s.index.lookup(id)
	if !ok {
		return VertexStat{}, false
	}
	return s.vertices[i], true
}

// SortOrder selects the partitioning scenario's vertex ordering.
type SortOrder int

const (
	// ByAvgFreq sorts by f̃v(m)/d̃(m) — scenario A (data sample only, §4.1).
	ByAvgFreq SortOrder = iota
	// ByFreqPerWeight sorts by f̃v(n)/w̃(n) — scenario B (data + workload
	// samples, §4.2).
	ByFreqPerWeight
)

// String implements fmt.Stringer.
func (o SortOrder) String() string {
	switch o {
	case ByAvgFreq:
		return "avg-frequency (data sample)"
	case ByFreqPerWeight:
		return "frequency-per-weight (data+workload)"
	default:
		return fmt.Sprintf("SortOrder(%d)", int(o))
	}
}

// Sorted returns the vertices ordered for the given scenario: ascending
// by key, ties broken by vertex id, which makes the order total and the
// result independent of how it was sorted. The result is a fresh slice;
// Stats is unchanged.
func (s *Stats) Sorted(order SortOrder) []VertexStat {
	if order != ByAvgFreq && order != ByFreqPerWeight {
		panic(fmt.Sprintf("vstats: unknown sort order %d", order))
	}
	ks := make([]keyedVertex, len(s.vertices))
	for i, v := range s.vertices {
		key := v.F / v.D
		if order == ByFreqPerWeight {
			key = v.F / v.W
		}
		ks[i] = keyedVertex{key, v.ID, uint32(i)}
	}
	slices.SortFunc(ks, compareKeyed)
	out := make([]VertexStat, len(ks))
	for i, k := range ks {
		out[i] = s.vertices[k.pos]
	}
	return out
}

// keyedVertex stands for the vertex at pos while sorting: its precomputed
// sort key and the id that breaks ties, so a comparison reads nothing else.
type keyedVertex struct {
	key float64
	id  uint64
	pos uint32
}

func compareKeyed(a, b keyedVertex) int {
	if a.key != b.key {
		if a.key < b.key {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.id, b.id) // deterministic tiebreak
}
