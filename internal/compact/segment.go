package compact

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Segment is one generation of a chain under lifecycle management: the
// sketch, its concurrency wrapper, its lifecycle record, and — once frozen —
// the retained data-reservoir sample its stream segment was summarized
// from (the re-ingest source of layout-incompatible compaction) plus its
// disk-tier state.
//
// A segment starts live (the chain head, absorbing updates). Freeze marks
// it immutable: the chain guarantees no writer touches a generation after
// its displacing rotation completes (updates run under the chain's shared
// lock, so a rotation's exclusive lock drains them), which is what lets a
// frozen segment be serialized, spilled to disk and reloaded without
// counter races, and what lets a fold read its counters in place. Spilled
// segments answer queries by lazy reload; reloads and evictions
// race-protect each other with loadMu while readers go through the atomic
// live pointer, so a query that grabbed the wrapper just before an
// eviction finishes harmlessly on the still-valid memory.
type Segment struct {
	// live is the resident state, nil while spilled-and-evicted. Readers
	// load it lock-free; transitions (spill, reload) serialize on loadMu.
	live   atomic.Pointer[residentState]
	loadMu sync.Mutex
	// spillPath is the on-disk version-2 stream of this segment, written
	// once (frozen segments never change, so the file never goes stale).
	// discarded is set by Discard: the segment has no future reader, and
	// is never spilled again. Both guarded by loadMu.
	spillPath string
	discarded bool

	meta     core.GenerationMeta
	frozenAt atomic.Int64 // unix seconds of the displacing rotation; 0 = live or unknown

	// Retained freeze-time reservoir: the data sample summarizing this
	// segment's stream slice, kept so compaction can re-ingest when exact
	// merge is impossible. sampleSeen is the reservoir's Seen() — when it
	// does not exceed the sample's weight, the sample IS the segment.
	sampleMu   sync.Mutex
	sample     []stream.Edge
	sampleSeen int64

	// count/memBytes cache the frozen segment's totals so a spilled segment
	// still reports stream volume and its would-be footprint without IO.
	count    atomic.Int64
	memBytes atomic.Int64

	lastAccess atomic.Int64 // query-touch ordinal, eviction ordering
}

type residentState struct {
	g    *core.GSketch
	conc *core.Concurrent
}

// accessClock hands out monotone ordinals for lastAccess without needing a
// real clock on the query path.
var accessClock atomic.Int64

// NewSegment wraps a sketch as a live (head) segment.
func NewSegment(g *core.GSketch, meta core.GenerationMeta) *Segment {
	return SegmentOf(core.NewConcurrent(g), meta)
}

// SegmentOf is NewSegment over a concurrency wrapper built elsewhere: the
// segment reads and writes the sketch under conc's own stripe locks, so
// writers holding conc and readers of the segment exclude each other.
func SegmentOf(conc *core.Concurrent, meta core.GenerationMeta) *Segment {
	if meta.CompactedFrom < 1 {
		meta.CompactedFrom = 1
	}
	s := &Segment{meta: meta}
	s.live.Store(&residentState{g: conc.Unwrap(), conc: conc})
	s.count.Store(conc.Count())
	s.memBytes.Store(int64(conc.MemoryBytes()))
	return s
}

// WithMeta returns a live segment carrying meta over s's sketch and stripe
// locks, so a caller still holding s reads the same counters safely.
func (s *Segment) WithMeta(meta core.GenerationMeta) *Segment {
	n := &Segment{meta: meta}
	n.live.Store(s.live.Load())
	return n
}

// Freeze marks the segment immutable, records when, and retains the
// freeze-time reservoir sample for later re-ingest compaction. The chain
// calls it after the displacing rotation's exclusive lock has drained all
// in-flight writers, so the cached totals are final.
func (s *Segment) Freeze(frozenAt int64, sample []stream.Edge, seen int64) {
	s.frozenAt.Store(frozenAt)
	s.sampleMu.Lock()
	s.sample = sample
	s.sampleSeen = seen
	s.sampleMu.Unlock()
	if ls := s.live.Load(); ls != nil {
		s.count.Store(ls.conc.Count())
		s.memBytes.Store(int64(ls.conc.MemoryBytes()))
	}
}

// UpdateBatch folds a batch into the segment. Only the chain head is
// updated; it is never spilled, so live is always set there.
func (s *Segment) UpdateBatch(edges []stream.Edge) { s.live.Load().conc.UpdateBatch(edges) }

// acquire returns the resident state, reloading from the spill file if the
// segment was evicted. The returned state stays valid for the caller even
// if an eviction races in afterwards.
func (s *Segment) acquire() (*residentState, error) {
	if ls := s.live.Load(); ls != nil {
		return ls, nil
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	if ls := s.live.Load(); ls != nil {
		return ls, nil
	}
	f, err := os.Open(s.spillPath)
	if err != nil {
		return nil, fmt.Errorf("compact: reload spilled generation: %w", err)
	}
	defer f.Close()
	g, err := core.ReadGSketch(f)
	if err != nil {
		return nil, fmt.Errorf("compact: reload spilled generation %s: %w", s.spillPath, err)
	}
	ls := &residentState{g: g, conc: core.NewConcurrent(g)}
	s.live.Store(ls)
	return ls, nil
}

// AppendEstimates answers a query batch from the segment, appending to dst
// and lazily reloading a spilled segment. A reload failure degrades to zero
// contributions (with a zero confidence so combined answers advertise the
// loss) rather than failing the whole chain gather.
func (s *Segment) AppendEstimates(dst []core.Result, qs []core.EdgeQuery) []core.Result {
	s.lastAccess.Store(accessClock.Add(1))
	ls, err := s.acquire()
	if err != nil {
		base := len(dst)
		dst = slices.Grow(dst, len(qs))[:base+len(qs)]
		clear(dst[base:])
		return dst
	}
	return ls.conc.AppendEstimates(dst, qs)
}

// Count returns the segment's stream volume: live when resident, the
// freeze-time cache when spilled.
func (s *Segment) Count() int64 {
	if ls := s.live.Load(); ls != nil {
		return ls.conc.Count()
	}
	return s.count.Load()
}

// MemoryBytes reports the resident counter footprint — zero while spilled,
// which is the point of tiering.
func (s *Segment) MemoryBytes() int {
	if ls := s.live.Load(); ls != nil {
		return ls.conc.MemoryBytes()
	}
	return 0
}

// SketchBytes reports the counter footprint regardless of residency.
func (s *Segment) SketchBytes() int {
	if ls := s.live.Load(); ls != nil {
		return ls.conc.MemoryBytes()
	}
	return int(s.memBytes.Load())
}

// Resident reports whether the segment's counters are in RAM.
func (s *Segment) Resident() bool { return s.live.Load() != nil }

// Tiered reports whether the segment has a disk copy (it may additionally
// be resident after a reload).
func (s *Segment) Tiered() bool {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	return s.spillPath != ""
}

// Meta returns the lifecycle record.
func (s *Segment) Meta() core.GenerationMeta { return s.meta }

// FrozenAt returns the unix-seconds freeze time (0 = live or unknown).
func (s *Segment) FrozenAt() int64 { return s.frozenAt.Load() }

// LastAccess returns the query-touch ordinal (0 = never queried).
func (s *Segment) LastAccess() int64 { return s.lastAccess.Load() }

// Sample returns the retained freeze-time reservoir and how much stream it
// summarizes. The slice is shared — callers must not mutate it.
func (s *Segment) Sample() ([]stream.Edge, int64) {
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	return s.sample, s.sampleSeen
}

// Sketch returns the resident sketch, nil while the segment is spilled.
// The chain reads its head's layout and routing through it, and a fold
// reads its resident sources' counters; neither writes through it.
func (s *Segment) Sketch() *core.GSketch {
	if ls := s.live.Load(); ls != nil {
		return ls.g
	}
	return nil
}

// NumShards reports the live sketch's writer domains (head only).
func (s *Segment) NumShards() int { return s.live.Load().conc.NumShards() }

// Spill writes the frozen segment to a file under dir (creating it) and
// drops the resident counters. Idempotent: a segment spilled before only
// drops residency — the file is immutable, so it is never rewritten. Live
// (unfrozen) spill requests are refused, and a discarded segment is left
// as it is.
func (s *Segment) Spill(dir string) error {
	if s.frozenAt.Load() == 0 {
		return fmt.Errorf("compact: refusing to spill a live generation")
	}
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	ls := s.live.Load()
	if ls == nil || s.discarded {
		return nil // already spilled and evicted, or no longer read
	}
	if s.spillPath == "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("compact: tier dir: %w", err)
		}
		f, err := os.CreateTemp(dir, "gen-*.gsk")
		if err != nil {
			return fmt.Errorf("compact: spill: %w", err)
		}
		if _, err := ls.conc.WriteTo(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return fmt.Errorf("compact: spill %s: %w", f.Name(), err)
		}
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return fmt.Errorf("compact: spill %s: %w", f.Name(), err)
		}
		s.spillPath = f.Name()
	}
	s.count.Store(ls.conc.Count())
	s.memBytes.Store(int64(ls.conc.MemoryBytes()))
	s.live.Store(nil)
	return nil
}

// Discard removes the segment's spill file, if any, and keeps a later Spill
// from writing another — called when compaction, a window rotation or a
// restore replaces the segment and its disk copy has no future reader.
func (s *Segment) Discard() {
	s.loadMu.Lock()
	defer s.loadMu.Unlock()
	s.discarded = true
	if s.spillPath != "" {
		os.Remove(s.spillPath)
		s.spillPath = ""
	}
}

// frozenSketch returns the frozen segment's sketch for a fold to read: the
// resident one in place — no writer touches a frozen generation — or, when
// the segment is spilled, a private copy read from its immutable file,
// leaving the segment spilled. private reports the latter.
func (s *Segment) frozenSketch() (g *core.GSketch, private bool, err error) {
	if g := s.Sketch(); g != nil {
		return g, false, nil
	}
	s.loadMu.Lock()
	path := s.spillPath
	s.loadMu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("compact: read spilled generation: %w", err)
	}
	defer f.Close()
	g, err = core.ReadGSketch(f)
	if err != nil {
		return nil, false, fmt.Errorf("compact: read spilled generation %s: %w", path, err)
	}
	return g, true, nil
}

// WriteTo streams the segment's version-2 stream: straight from the spill
// file when evicted, else a consistent striped-lock serialization. This is
// how a chain snapshot includes tiered generations without reloading them.
func (s *Segment) WriteTo(w io.Writer) (int64, error) {
	if ls := s.live.Load(); ls != nil {
		return ls.conc.WriteTo(w)
	}
	s.loadMu.Lock()
	path := s.spillPath
	s.loadMu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("compact: serialize spilled generation: %w", err)
	}
	defer f.Close()
	return io.Copy(w, f)
}

var _ io.WriterTo = (*Segment)(nil)
