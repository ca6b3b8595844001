package compact

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// segmentBytes is a segment's serialized form; for a spilled segment it
// streams the spill file without reloading.
func segmentBytes(t *testing.T, s *Segment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sketchBytes is a sketch's serialized form.
func sketchBytes(t *testing.T, g *core.GSketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copiedFold folds deep copies of the sources, each made by a serialize →
// parse round trip, into the sketch a fold must produce: the copies merged
// cell-wise when they share a layout, else a rebuild replaying the
// retained reservoirs.
func copiedFold(t *testing.T, segs []*Segment, cfg core.Config) []byte {
	t.Helper()
	copies := make([]*core.GSketch, len(segs))
	for i, s := range segs {
		g, err := core.ReadGSketch(bytes.NewReader(segmentBytes(t, s)))
		if err != nil {
			t.Fatal(err)
		}
		copies[i] = g
	}
	mergeable := true
	for _, g := range copies[1:] {
		mergeable = mergeable && copies[0].CanMerge(g) == nil
	}
	if mergeable {
		for _, g := range copies[1:] {
			if err := copies[0].MergeFrom(g); err != nil {
				t.Fatal(err)
			}
		}
		return sketchBytes(t, copies[0])
	}
	var combined []stream.Edge
	for _, s := range segs {
		sample, _ := s.Sample()
		combined = append(combined, sample...)
	}
	g, err := core.BuildGSketch(cfg, combined, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range segs {
		sample, _ := s.Sample()
		core.Populate(g, scaledReplay(sample, s.Count()))
	}
	return sketchBytes(t, g)
}

// A fold reads resident sources in place and spilled ones from their files;
// either way its result must serialize to the bytes a fold of deep copies
// gives, on both paths and for every mix of residency — and it must leave
// every source as it found it: same bytes, same residency, no query touch.
func TestFoldInPlaceMatchesCopiedSources(t *testing.T) {
	edges := testStream(30000, 19)
	cfg := core.Config{TotalBytes: 64 << 10, Seed: 9}
	for _, path := range []struct {
		name  string
		exact bool
		seeds [3]uint64
	}{
		{"exact", true, [3]uint64{9, 9, 9}},
		{"reingest", false, [3]uint64{9, 4, 9}},
	} {
		for _, mix := range []struct {
			name    string
			spilled [3]bool
		}{
			{"resident", [3]bool{}},
			{"spilled", [3]bool{true, true, true}},
			{"base_spilled", [3]bool{true, false, false}},
			{"rest_spilled", [3]bool{false, true, true}},
		} {
			t.Run(path.name+"/"+mix.name, func(t *testing.T) {
				dir := t.TempDir()
				segs := make([]*Segment, 3)
				for i := range segs {
					slice := edges[i*10000 : (i+1)*10000]
					segs[i] = frozenSegment(t, edges[:1000], path.seeds[i], slice)
					if mix.spilled[i] {
						if err := segs[i].Spill(dir); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Query one resident source so its access ordinal is set.
				for _, s := range segs {
					if s.Resident() {
						s.EstimateEdge(edges[0].Src, edges[0].Dst)
						break
					}
				}
				before := make([][]byte, len(segs))
				access := make([]int64, len(segs))
				for i, s := range segs {
					before[i], access[i] = segmentBytes(t, s), s.LastAccess()
				}
				want := copiedFold(t, segs, cfg)

				merged, exact, err := Fold(segs, cfg, nil, 1<<20)
				if err != nil {
					t.Fatal(err)
				}
				if exact != path.exact {
					t.Fatalf("exact = %v, want %v", exact, path.exact)
				}
				if got := segmentBytes(t, merged); !bytes.Equal(got, want) {
					t.Fatalf("fold serializes to %d bytes unlike the fold of copies (%d bytes)", len(got), len(want))
				}
				for i, s := range segs {
					if !bytes.Equal(segmentBytes(t, s), before[i]) {
						t.Errorf("source %d changed under the fold", i)
					}
					if s.Resident() == mix.spilled[i] {
						t.Errorf("source %d resident = %v after the fold, want %v", i, s.Resident(), !mix.spilled[i])
					}
					if s.LastAccess() != access[i] {
						t.Errorf("source %d access ordinal moved %d → %d", i, access[i], s.LastAccess())
					}
				}
			})
		}
	}
}

// foldAllocBytes reports the bytes one fold of segs allocates.
func foldAllocBytes(t *testing.T, segs []*Segment, cfg core.Config, wantExact bool) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, exact, err := Fold(segs, cfg, nil, 4096)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if exact != wantExact {
		t.Fatalf("exact = %v, want %v", exact, wantExact)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// A fold of two resident 4 MiB generations allocates its result and
// nothing else of the sources' size. On this fixture a fold that deep-copied
// its sources first allocated 43.9 MB on the exact path and 51.1 MB on the
// re-ingest path; reading them in place it allocates 5.0 MB — the 4.2 MB
// arena, router and leaf table of the result — and 7.7 MB — the rebuild's
// 6.3 MB (the arena and its partitioning scratch) plus the replayed
// reservoirs. The budgets sit a little above those figures.
func TestFoldAllocBudget(t *testing.T) {
	rng := hashutil.NewRNG(23)
	edges := make([]stream.Edge, 1<<18)
	for i := range edges {
		edges[i] = stream.Edge{Src: rng.Uint64() % (1 << 14), Dst: rng.Uint64() % (1 << 16), Weight: 1}
	}
	cfg := core.Config{TotalBytes: 4 << 20, Seed: 5}
	half := len(edges) / 2
	segment := func(seed uint64, slice []stream.Edge) *Segment {
		g, err := core.BuildGSketch(core.Config{TotalBytes: 4 << 20, Seed: seed}, edges[:1<<15], nil)
		if err != nil {
			t.Fatal(err)
		}
		core.Populate(g, slice)
		s := NewSegment(g, core.GenerationMeta{})
		s.Freeze(2000, slice[:4096], int64(len(slice)))
		return s
	}
	for _, tc := range []struct {
		name   string
		exact  bool
		seed   uint64
		budget uint64
	}{
		{"exact", true, 5, 5_500_000},
		{"reingest", false, 6, 8_400_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			segs := []*Segment{segment(5, edges[:half]), segment(tc.seed, edges[half:])}
			got := foldAllocBytes(t, segs, cfg, tc.exact)
			if got > tc.budget {
				t.Fatalf("one fold allocated %d bytes, budget %d", got, tc.budget)
			}
		})
	}
}
