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
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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

// Stats holds per-vertex statistics for every distinct source vertex of a
// data sample, in order of first appearance.
type Stats struct {
	vertices []VertexStat
	index    srcTable // vertex id → position in vertices
	totalF   float64
	hasWork  bool
}

// Sample errors, matched with errors.Is.
var (
	// ErrNegativeWeight reports a sample edge with a negative weight: f̃v
	// sums weights, and the sketches the statistics size count in the
	// cash-register model, where frequencies only grow.
	ErrNegativeWeight = errors.New("vstats: negative edge weight")
	// ErrSampleChanged reports a sample file that was not the same file on
	// both passes: its size or modification time moved, or the second pass
	// read more or fewer edges or runs than the first, or a run on another
	// source.
	ErrSampleChanged = errors.New("vstats: sample file changed between passes")
)

// FromEdges computes vertex statistics from a data sample. Zero-weight
// sample edges count as weight 1, matching the paper's default frequency; a
// negative weight fails with ErrNegativeWeight.
//
// It is the two passes of builder over the slice, 12 bytes per run of equal
// consecutive edges beside it.
func FromEdges(sample []stream.Edge) (*Stats, error) {
	b := new(builder)
	b.reserve(len(sample))
	return b.run(func(visit func([]stream.Edge) error) error { return visit(sample) })
}

// FromSample is FromEdges for a sample known to hold no negative weight —
// one already refused at ingest or at Open — and panics on one.
func FromSample(sample []stream.Edge) *Stats {
	s, err := FromEdges(sample)
	if err != nil {
		panic(err)
	}
	return s
}

// FromFile computes the statistics FromSample computes from the first limit
// edges (0 = all) of an edge file in either format, without holding them:
// the file is read twice, a chunk at a time, and what is kept is the 12
// bytes per run of equal consecutive edges of the passes. A text file is
// parsed twice. The path must name a regular file, and one that does not
// change between the passes (ErrSampleChanged); a malformed file fails with
// the error stream.ReadEdgeFile gives, a negative weight with
// ErrNegativeWeight.
func FromFile(path string, limit int) (*Stats, error) {
	b := new(builder)
	return b.run(b.fileReplay(path, limit))
}

// builder computes Stats in two passes over a sample handed over in chunks,
// the same edges in the same order both times. Its unit is the run: a
// maximal streak of consecutive sample edges with the same (src, dst), which
// adds to f̃v but holds one destination. Pass 1 sums f̃v edge by edge, in
// sample order, so vertices keep their order of first appearance and every
// float sum its order of addition; it interns each run's source through an
// open-addressing table and records which vertex owns the run. Pass 2
// scatters each run's destination into one contiguous segment per source
// (CSR), and d̃ is the number of distinct values in each sorted segment. It
// keeps 4 bytes per run after pass 1 and 12 after pass 2, nothing that grows
// with the sample beyond that.
type builder struct {
	s     *Stats
	owner []uint32 // run → vertex position
	ends  []int    // runs per vertex; segment ends after the scatter
	dsts  []uint64 // destinations, one per run, one segment per vertex
	edges int      // pass 1: sample edges counted
	seen  int      // pass 2: sample edges scattered
	next  int      // pass 2: the next run
	// src and dst are the last edge of the pass under way: an edge equal to
	// it continues its run.
	src, dst uint64
}

// reserve sizes the builder, before pass 1, for a sample of n edges (0 when
// that is not known). How many runs and sources it has is not known yet.
// owner gets room for one run per edge: only the prefix the runs use is
// written, so only those pages become resident. An eighth of the edges is
// where the table and the per-vertex slices start, and all of them grow.
func (b *builder) reserve(n int) {
	guess := n / 8
	b.s = &Stats{vertices: make([]VertexStat, 0, guess), index: newSrcTable(guess)}
	b.owner = make([]uint32, 0, n)
	b.ends = make([]int, 0, guess)
}

// run makes the passes over the sample replay hands to its visitor, one
// call per pass.
func (b *builder) run(replay func(visit func([]stream.Edge) error) error) (*Stats, error) {
	if err := replay(b.count); err != nil {
		return nil, err
	}
	// Turn the counts into segment starts. Advancing a vertex's start as
	// its cursor in the scatter leaves it at the segment's end, so one
	// slice serves as both.
	sum := 0
	for v, n := range b.ends {
		b.ends[v] = sum
		sum += n
	}
	b.dsts = make([]uint64, sum)
	if err := replay(b.scatter); err != nil {
		return nil, err
	}
	if b.seen != b.edges || b.next != len(b.owner) {
		return nil, fmt.Errorf("%w: %d edges in %d runs on the second pass, %d in %d on the first",
			ErrSampleChanged, b.seen, b.next, b.edges, len(b.owner))
	}
	start := 0
	for v, end := range b.ends {
		b.s.vertices[v].D = float64(distinct(b.dsts[start:end]))
		start = end
	}
	return b.s, nil
}

// count is pass 1 over one chunk: sum f̃v per edge; at the start of each run
// intern its source and count a run for it. A negative weight stops it
// before the edge is folded.
func (b *builder) count(chunk []stream.Edge) error {
	s := b.s
	for _, e := range chunk {
		w := e.Weight
		if w <= 0 {
			if w < 0 {
				return fmt.Errorf("%w: sample edge %d has weight %d", ErrNegativeWeight, b.edges, w)
			}
			w = 1
		}
		if b.edges == 0 || e.Src != b.src || e.Dst != b.dst {
			if len(b.owner) == math.MaxUint32 {
				// Vertex positions are held as uint32; a sample has at most
				// as many sources as runs.
				return fmt.Errorf("vstats: sample exceeds the %d runs supported", uint32(math.MaxUint32))
			}
			v, fresh := s.index.intern(e.Src)
			if fresh {
				s.vertices = append(s.vertices, VertexStat{ID: e.Src, W: 1})
				b.ends = append(b.ends, 0)
			}
			b.owner = append(b.owner, v)
			b.ends[v]++
			b.src, b.dst = e.Src, e.Dst
		}
		s.vertices[b.owner[len(b.owner)-1]].F += float64(w)
		s.totalF += float64(w)
		b.edges++
	}
	return nil
}

// scatter is pass 2 over one chunk: each run's destination goes to the next
// free slot of its source's segment. A chunk the first pass did not see —
// more edges, more runs, or another source at a run — is refused.
func (b *builder) scatter(chunk []stream.Edge) error {
	if len(chunk) > b.edges-b.seen {
		return fmt.Errorf("%w: more than the %d edges of the first pass", ErrSampleChanged, b.edges)
	}
	for i, e := range chunk {
		if b.seen+i > 0 && e.Src == b.src && e.Dst == b.dst {
			continue
		}
		if b.next == len(b.owner) {
			return fmt.Errorf("%w: more than the %d runs of the first pass", ErrSampleChanged, len(b.owner))
		}
		v := b.owner[b.next]
		if b.s.vertices[v].ID != e.Src {
			return fmt.Errorf("%w: run %d, at edge %d, has another source", ErrSampleChanged, b.next, b.seen+i)
		}
		b.dsts[b.ends[v]] = e.Dst
		b.ends[v]++
		b.next++
		b.src, b.dst = e.Src, e.Dst
	}
	b.seen += len(chunk)
	return nil
}

// fileReplay returns the replay of an edge file: every call opens the file
// and hands its edges, up to limit, to visit a chunk at a time out of one
// buffer. The first call sizes the builder from the header when the format
// states the count; every call checks, before it opens the file and when it
// is done with it, that the path names a regular file of the size and
// modification time the first call found.
func (b *builder) fileReplay(path string, limit int) func(visit func([]stream.Edge) error) error {
	var first os.FileInfo
	same := func() error {
		// Before opening too: opening a FIFO would block until a writer
		// came along.
		fi, err := os.Stat(path)
		switch {
		case err != nil:
			return err
		case !fi.Mode().IsRegular():
			return fmt.Errorf("vstats: sample %s is not a regular file", path)
		case first == nil:
			first = fi
		case fi.Size() != first.Size() || !fi.ModTime().Equal(first.ModTime()):
			return fmt.Errorf("%w: %s", ErrSampleChanged, path)
		}
		return nil
	}
	return func(visit func([]stream.Edge) error) error {
		firstPass := first == nil
		if err := same(); err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc, err := stream.NewEdgeScanner(f, limit)
		if err != nil {
			return err
		}
		if firstPass {
			b.reserve(max(sc.Len(), 0))
		}
		chunk := make([]stream.Edge, 0, stream.ChunkEdges)
		for {
			chunk, err = sc.Next(chunk[:0])
			if err == io.EOF {
				return same()
			}
			if err != nil {
				return err
			}
			if err := visit(chunk); err != nil {
				return err
			}
		}
	}
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

// Len returns the number of distinct source vertices in the sample.
func (s *Stats) Len() int { return len(s.vertices) }

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
