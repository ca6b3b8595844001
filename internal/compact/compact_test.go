package compact

import (
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 256,
			Dst:    rng.Uint64() % 1024,
			Weight: 1,
		}
	}
	return edges
}

func buildSketch(t *testing.T, sample []stream.Edge, seed uint64) *core.GSketch {
	t.Helper()
	g, err := core.BuildGSketch(core.Config{TotalBytes: 64 << 10, Seed: seed}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// frozenSegment builds a frozen segment over its stream slice, retaining
// the slice itself as the reservoir (seen == len, a lossless sample).
func frozenSegment(t *testing.T, build []stream.Edge, seed uint64, slice []stream.Edge) *Segment {
	t.Helper()
	g := buildSketch(t, build, seed)
	core.Populate(g, slice)
	s := NewSegment(g, core.GenerationMeta{BuiltAt: 1000, CompactedFrom: 1})
	s.Freeze(2000, slice, int64(len(slice)))
	return s
}

// estimate answers e's edge from s as a one-query batch.
func estimate(s *Segment, e stream.Edge) int64 {
	return s.AppendEstimates(nil, []core.EdgeQuery{{Src: e.Src, Dst: e.Dst}})[0].Estimate
}

func TestPolicyDefaultsEnabledTriggered(t *testing.T) {
	p := Policy{}.WithDefaults()
	if p.Fold != 2 || p.Interval != 30*time.Second {
		t.Fatalf("defaults: fold %d interval %v, want 2 / 30s", p.Fold, p.Interval)
	}
	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if (Policy{Fold: 4, Interval: time.Minute}).Enabled() {
		t.Fatal("policy without triggers must be disabled")
	}

	cases := []struct {
		name string
		p    Policy
		s    State
		want bool
	}{
		{"gens under", Policy{MaxGenerations: 4}, State{Generations: 4}, false},
		{"gens over", Policy{MaxGenerations: 4}, State{Generations: 5}, true},
		{"mem under", Policy{MaxMemoryBytes: 1 << 20}, State{MemoryBytes: 1 << 20}, false},
		{"mem over", Policy{MaxMemoryBytes: 1 << 20}, State{MemoryBytes: 1<<20 + 1}, true},
		{"age under", Policy{MaxAge: time.Hour}, State{OldestAge: time.Hour}, false},
		{"age over", Policy{MaxAge: time.Hour}, State{OldestAge: time.Hour + time.Second}, true},
		{"any of several", Policy{MaxGenerations: 10, MaxAge: time.Hour}, State{Generations: 2, OldestAge: 2 * time.Hour}, true},
	}
	for _, tc := range cases {
		if got := tc.p.Triggered(tc.s); got != tc.want {
			t.Errorf("%s: Triggered = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// scaledReplay must conserve volume exactly: the replayed weights sum to
// the target no matter how the scale factor rounds.
func TestScaledReplayConservesVolume(t *testing.T) {
	sample := testStream(997, 3) // odd size to stress the remainder loop
	for _, target := range []int64{1, 996, 997, 1000, 12345, 1_000_003} {
		out := scaledReplay(sample, target)
		var sum int64
		for _, e := range out {
			if e.Weight <= 0 {
				t.Fatalf("target %d: zero-weight edge survived", target)
			}
			sum += e.Weight
		}
		if sum != target {
			t.Fatalf("target %d: replayed volume %d", target, sum)
		}
	}
	if out := scaledReplay(sample, 0); out != nil {
		t.Fatal("target 0 must replay nothing")
	}
	if out := scaledReplay(nil, 100); out != nil {
		t.Fatal("empty sample must replay nothing")
	}
	// Weights and targets at the saturation point: the replay's saturating
	// sum reaches the target, however far apart the magnitudes are.
	for _, tc := range []struct {
		weights []int64
		target  int64
	}{
		{[]int64{1 << 62, 1 << 62, 5}, math.MaxInt64},
		{[]int64{1 << 62, 1 << 62}, math.MaxInt64},
		{[]int64{1, 1, 1}, math.MaxInt64},
		{[]int64{3, 1 << 61, 7, 1}, math.MaxInt64 - 12345},
		{[]int64{math.MaxInt64, math.MaxInt64, 2}, 1000},
	} {
		sample := make([]stream.Edge, len(tc.weights))
		for i, w := range tc.weights {
			sample[i] = stream.Edge{Src: uint64(i), Dst: 1, Weight: w}
		}
		var sum int64
		for _, e := range scaledReplay(sample, tc.target) {
			sum = sketch.AddVolume(sum, e.Weight)
		}
		if sum != tc.target {
			t.Fatalf("weights %v: replayed volume %d, want %d", tc.weights, sum, tc.target)
		}
	}
	// A reservoir that retained its whole segment replays losslessly.
	out := scaledReplay(sample, int64(len(sample)))
	if len(out) != len(sample) {
		t.Fatalf("1:1 replay kept %d of %d edges", len(out), len(sample))
	}
	for i := range out {
		if out[i] != sample[i] {
			t.Fatalf("1:1 replay mutated edge %d", i)
		}
	}
}

// combineSamples caps retained memory at 2× the reservoir size so repeated
// compaction cannot grow it without bound, while seen totals still add.
func TestCombineSamplesCap(t *testing.T) {
	edges := testStream(6000, 5)
	a := frozenSegment(t, edges[:500], 1, edges[:3000])
	b := frozenSegment(t, edges[:500], 1, edges[3000:])
	combined, seen := combineSamples([]*Segment{a, b}, 1000)
	if len(combined) != 2000 {
		t.Fatalf("combined sample = %d edges, want capped 2000", len(combined))
	}
	if seen != 6000 {
		t.Fatalf("combined seen = %d, want 6000", seen)
	}
	// Under the cap the concatenation passes through whole.
	combined, _ = combineSamples([]*Segment{a, b}, 4000)
	if len(combined) != 6000 {
		t.Fatalf("uncapped combine = %d edges, want 6000", len(combined))
	}
}

// Fold's exact path: same hash layout → counters add cell-wise, volume is
// conserved, lineage accumulates, and estimates never fall below either
// source's answers.
func TestFoldExactMerge(t *testing.T) {
	edges := testStream(20000, 7)
	// Identical build sample + config ⇒ identical layouts.
	a := frozenSegment(t, edges[:1000], 9, edges[:10000])
	b := frozenSegment(t, edges[:1000], 9, edges[10000:])

	merged, exact, err := Fold([]*Segment{a, b}, core.Config{TotalBytes: 64 << 10, Seed: 9}, nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("identical layouts must merge exactly")
	}
	if got, want := merged.Count(), a.Count()+b.Count(); got != want {
		t.Fatalf("merged volume %d, want %d", got, want)
	}
	if got := merged.Meta().CompactedFrom; got != 2 {
		t.Fatalf("merged lineage %d, want 2", got)
	}
	for _, e := range edges[:300] {
		sum := estimate(a, e) + estimate(b, e)
		if got := estimate(merged, e); got < sum {
			// min-of-sums ≥ sum-of-mins: the merged CountMin can only
			// answer at or above the gathered sum, never below.
			t.Fatalf("edge (%d,%d): merged %d < gathered sum %d", e.Src, e.Dst, got, sum)
		}
	}
}

// Fold's re-ingest path: different layouts force a rebuild from the
// retained reservoirs; volume is still conserved exactly.
func TestFoldReingestConservesVolume(t *testing.T) {
	edges := testStream(16000, 11)
	a := frozenSegment(t, edges[:1000], 1, edges[:8000])
	b := frozenSegment(t, edges[2000:3500], 2, edges[8000:]) // different sample+seed ⇒ different layout

	merged, exact, err := Fold([]*Segment{a, b}, core.Config{TotalBytes: 64 << 10, Seed: 3}, nil, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if exact {
		t.Fatal("different layouts cannot merge exactly")
	}
	if got, want := merged.Count(), a.Count()+b.Count(); got != want {
		t.Fatalf("merged volume %d, want %d", got, want)
	}

	// A segment with volume but no retained sample cannot re-ingest.
	g := buildSketch(t, edges[:1000], 4)
	core.Populate(g, edges[:2000])
	bare := NewSegment(g, core.GenerationMeta{})
	bare.Freeze(2000, nil, 0)
	if _, _, err := Fold([]*Segment{bare, b}, core.Config{TotalBytes: 64 << 10, Seed: 3}, nil, 1024); !errors.Is(err, ErrUnfoldable) {
		t.Fatalf("re-ingest without retained samples: %v, want ErrUnfoldable", err)
	}

	if _, _, err := Fold([]*Segment{a}, core.Config{TotalBytes: 64 << 10, Seed: 3}, nil, 1024); err == nil {
		t.Fatal("folding fewer than two segments must fail")
	}
}

// Spill → evict → lazy reload must round-trip answers byte-identically,
// report residency honestly, and refuse live segments.
func TestSegmentSpillReloadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	edges := testStream(8000, 13)

	g := buildSketch(t, edges[:800], 5)
	live := NewSegment(g, core.GenerationMeta{})
	live.UpdateBatch(edges)
	if err := live.Spill(dir); err == nil {
		t.Fatal("spilling a live segment must be refused")
	}

	want := make([]int64, 200)
	for i, e := range edges[:200] {
		want[i] = estimate(live, e)
	}
	wantCount := live.Count()
	wantBytes := live.MemoryBytes()

	live.Freeze(1234, edges[:100], 100)
	if err := live.Spill(dir); err != nil {
		t.Fatal(err)
	}
	if live.Resident() {
		t.Fatal("segment still resident after spill")
	}
	if !live.Tiered() {
		t.Fatal("segment not tiered after spill")
	}
	if live.MemoryBytes() != 0 {
		t.Fatalf("spilled MemoryBytes = %d, want 0", live.MemoryBytes())
	}
	if live.SketchBytes() != wantBytes {
		t.Fatalf("spilled SketchBytes = %d, want %d", live.SketchBytes(), wantBytes)
	}
	if live.Count() != wantCount {
		t.Fatalf("spilled Count = %d, want cached %d", live.Count(), wantCount)
	}

	// First query lazily reloads; answers are byte-identical.
	for i, e := range edges[:200] {
		if got := estimate(live, e); got != want[i] {
			t.Fatalf("edge (%d,%d): reloaded %d != original %d", e.Src, e.Dst, got, want[i])
		}
	}
	if !live.Resident() {
		t.Fatal("segment not resident after reload")
	}
	// Re-spill drops residency without rewriting the immutable file.
	ents, _ := os.ReadDir(dir)
	if err := live.Spill(dir); err != nil {
		t.Fatal(err)
	}
	ents2, _ := os.ReadDir(dir)
	if len(ents) != 1 || len(ents2) != 1 {
		t.Fatalf("tier dir holds %d then %d files, want 1 and 1", len(ents), len(ents2))
	}
	live.Discard()
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("tier dir holds %d files after discard, want 0", len(ents))
	}
}
