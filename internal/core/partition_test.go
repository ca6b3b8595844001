package core

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
	"github.com/graphstream/gsketch/internal/vstats"
)

func randomSample(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 64,
			Dst:    rng.Uint64() % 256,
			Weight: int64(rng.Uint64()%9) + 1,
		}
	}
	return edges
}

func defaultParams(width int) PartitionParams {
	return PartitionParams{
		Width:      width,
		MinWidth:   DefaultMinWidth,
		CollisionC: DefaultCollisionC,
		Order:      vstats.ByAvgFreq,
	}
}

func TestPartitioningWidthConservation(t *testing.T) {
	stats := vstats.FromSample(randomSample(2000, 1))
	for _, width := range []int{100, 512, 4096, 65536} {
		p, err := BuildPartitioning(stats, defaultParams(width))
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		total := 0
		for _, l := range p.Leaves {
			if l.Width < 1 {
				t.Fatalf("width %d: leaf with width %d", width, l.Width)
			}
			total += l.Width
		}
		if total != width {
			t.Errorf("width %d: Σleaves = %d, want the budget", width, total)
		}
	}
}

func TestPartitioningRouterTotality(t *testing.T) {
	sample := randomSample(3000, 2)
	stats := vstats.FromSample(sample)
	p, err := BuildPartitioning(stats, defaultParams(2048))
	if err != nil {
		t.Fatal(err)
	}
	// Every sampled source vertex routes to exactly one existing leaf.
	if len(p.Vertices) != stats.Len() || len(p.LeafOf) != stats.Len() {
		t.Errorf("router covers %d vertices (%d leaves), sample has %d", len(p.Vertices), len(p.LeafOf), stats.Len())
	}
	counts := make([]int, len(p.Leaves))
	for i, leaf := range p.LeafOf {
		v := p.Vertices[i]
		if i > 0 && v <= p.Vertices[i-1] {
			t.Fatalf("vertex %d at %d follows %d: not strictly ascending", v, i, p.Vertices[i-1])
		}
		if _, ok := stats.Get(v); !ok {
			t.Fatalf("assigned vertex %d is not in the sample", v)
		}
		if int(leaf) < 0 || int(leaf) >= len(p.Leaves) {
			t.Fatalf("vertex %d routed to nonexistent leaf %d", v, leaf)
		}
		counts[leaf]++
	}
	for i, l := range p.Leaves {
		if counts[i] != l.Vertices {
			t.Errorf("leaf %d: %d routed vertices, leaf records %d", i, counts[i], l.Vertices)
		}
	}
}

func TestPartitioningPivotMatchesBruteForce(t *testing.T) {
	// The prefix-sum pivot scan must agree with a brute-force evaluation
	// of the Eq. 9 objective at the root split.
	sample := randomSample(400, 3)
	stats := vstats.FromSample(sample)
	verts := stats.Sorted(vstats.ByAvgFreq)
	n := len(verts)

	prefF := make([]float64, n+1)
	prefG := make([]float64, n+1)
	for i, v := range verts {
		prefF[i+1] = prefF[i] + v.F
		prefG[i+1] = prefG[i] + v.D*v.D/v.F
	}
	got := bestPivot(node{0, n, 1024}, prefF, prefG)

	bruteBest, bruteE := -1, math.Inf(1)
	for k := 1; k <= n-1; k++ {
		var f1, g1, f2, g2 float64
		for _, v := range verts[:k] {
			f1 += v.F
			g1 += v.D * v.D / v.F
		}
		for _, v := range verts[k:] {
			f2 += v.F
			g2 += v.D * v.D / v.F
		}
		if e := f1*g1 + f2*g2; e < bruteE {
			bruteE = e
			bruteBest = k
		}
	}
	if got != bruteBest {
		t.Errorf("pivot scan chose %d, brute force %d", got, bruteBest)
	}
}

func TestPartitioningMinWidthTermination(t *testing.T) {
	stats := vstats.FromSample(randomSample(2000, 4))
	p, err := BuildPartitioning(stats, PartitionParams{
		Width: 1024, MinWidth: 256, CollisionC: 0.5, Order: vstats.ByAvgFreq,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Per Figure 2 a child splits further while its width ≥ w0, so the
	// tree stops at 1024 → 512 → 256 → 128 (< w0): at most 8 leaves, and
	// the width floor w0/2 = 128 keeps every one at least that wide.
	if len(p.Leaves) > 8 {
		t.Errorf("%d leaves with w0=256 from width 1024, want ≤ 8", len(p.Leaves))
	}
	for i, l := range p.Leaves {
		if l.Width < 128 {
			t.Errorf("leaf %d: width %d < w0/2", i, l.Width)
		}
	}
}

func TestPartitioningCollisionTermination(t *testing.T) {
	// A tiny sample (Σd̃ = 10 ≤ C·4096) terminates at the root by Theorem 1:
	// one leaf, which gets the whole budget.
	var sample []stream.Edge
	for i := 0; i < 10; i++ {
		sample = append(sample, stream.Edge{Src: uint64(i), Dst: 1, Weight: 1})
	}
	stats := vstats.FromSample(sample)
	p, err := BuildPartitioning(stats, PartitionParams{
		Width: 4096, MinWidth: 64, CollisionC: 0.5, Order: vstats.ByAvgFreq,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Leaves) != 1 || p.Leaves[0].Width != 4096 {
		t.Fatalf("leaves = %+v, want one leaf of 4096 columns", p.Leaves)
	}
}

func TestPartitioningMaxPartitionsCap(t *testing.T) {
	stats := vstats.FromSample(randomSample(3000, 5))
	for _, cap := range []int{1, 2, 3, 7, 8} {
		p, err := BuildPartitioning(stats, PartitionParams{
			Width: 1 << 16, MinWidth: 4, CollisionC: 0.5,
			Order: vstats.ByAvgFreq, MaxPartitions: cap,
		})
		if err != nil {
			t.Fatalf("cap %d: %v", cap, err)
		}
		if len(p.Leaves) > cap {
			t.Errorf("cap %d: got %d leaves", cap, len(p.Leaves))
		}
	}
}

func TestPartitioningSingleVertex(t *testing.T) {
	stats := vstats.FromSample([]stream.Edge{{Src: 1, Dst: 2, Weight: 5}})
	p, err := BuildPartitioning(stats, defaultParams(1024))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Leaves) != 1 || p.Leaves[0].Vertices != 1 {
		t.Errorf("single-vertex partitioning = %+v", p.Leaves)
	}
}

func TestPartitioningEmptySample(t *testing.T) {
	stats := vstats.FromSample(nil)
	if _, err := BuildPartitioning(stats, defaultParams(1024)); !errors.Is(err, ErrEmptySample) {
		t.Errorf("error = %v, want ErrEmptySample", err)
	}
}

func TestPartitioningInvalidParams(t *testing.T) {
	stats := vstats.FromSample(randomSample(10, 6))
	bad := []PartitionParams{
		{Width: 0, MinWidth: 64, CollisionC: 0.5},
		{Width: 100, MinWidth: 1, CollisionC: 0.5},
		{Width: 100, MinWidth: 64, CollisionC: 0},
		{Width: 100, MinWidth: 64, CollisionC: 1},
	}
	for i, params := range bad {
		if _, err := BuildPartitioning(stats, params); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestLeafWidths(t *testing.T) {
	leaf := func(f, g float64) Leaf { return Leaf{SumF: f, sumG: g} }
	for _, tc := range []struct {
		name          string
		leaves        []Leaf
		budget, floor int
		want          []int // nil: only the invariants are checked
	}{
		{"one leaf takes the budget", []Leaf{leaf(3, 5)}, 4096, 32, []int{4096}},
		// √(F̃G) = 1, 2, 3: the 600 columns above the floor split 100/200/300.
		{"proportional to √(F̃G)", []Leaf{leaf(1, 1), leaf(1, 4), leaf(9, 1)}, 630, 10, []int{110, 210, 310}},
		{"zero weight keeps the floor", []Leaf{leaf(0, 7), leaf(4, 4)}, 100, 32, []int{32, 68}},
		{"all weights zero split evenly", []Leaf{leaf(0, 0), leaf(0, 0), leaf(0, 0)}, 100, 10, []int{34, 33, 33}},
		{"remainder round-robin", []Leaf{leaf(1, 1), leaf(1, 1), leaf(1, 1)}, 101, 1, []int{34, 34, 33}},
		{"weights near 2⁶²", []Leaf{leaf(1<<62, 1<<62), leaf(1<<62, 1), leaf(1, 1<<62)}, 1 << 20, 32, nil},
		{"weights near the float range's top", []Leaf{leaf(1e300, 1e300), leaf(1e300, 1e300), leaf(1, 1)}, 1000, 32, []int{484, 484, 32}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leafWidths(tc.leaves, tc.budget, tc.floor)
			total := 0
			got := make([]int, len(tc.leaves))
			for i, l := range tc.leaves {
				got[i] = l.Width
				total += l.Width
				if l.Width < tc.floor {
					t.Errorf("leaf %d: width %d below the floor %d", i, l.Width, tc.floor)
				}
			}
			if total != tc.budget {
				t.Errorf("Σw = %d, want %d (widths %v)", total, tc.budget, got)
			}
			if tc.want != nil && !slices.Equal(got, tc.want) {
				t.Errorf("widths %v, want %v", got, tc.want)
			}
		})
	}
}

// TestPartitioningWidthFloor holds the floor to min(w0/2, ⌊W/n⌋): w0/2
// when the leaves fit it, and the even share when n·w0/2 would pass the
// budget. Every tree leaf is at least ⌊w0/2⌋ wide, so the even share takes
// over only for a root narrower than w0/2.
func TestPartitioningWidthFloor(t *testing.T) {
	stats := vstats.FromSample(randomSample(3000, 10))
	for _, tc := range []struct {
		width, wantFloor int
	}{
		{1 << 14, 32},
		{20, 20},
	} {
		p, err := BuildPartitioning(stats, defaultParams(tc.width))
		if err != nil {
			t.Fatal(err)
		}
		if floor := min(DefaultMinWidth/2, tc.width/len(p.Leaves)); floor != tc.wantFloor {
			t.Errorf("width %d: floor %d over %d leaves, want %d", tc.width, floor, len(p.Leaves), tc.wantFloor)
		}
		total := 0
		for i, l := range p.Leaves {
			total += l.Width
			if l.Width < tc.wantFloor {
				t.Errorf("width %d: leaf %d has %d columns, floor %d", tc.width, i, l.Width, tc.wantFloor)
			}
		}
		if total != tc.width {
			t.Errorf("width %d: Σw = %d", tc.width, total)
		}
	}
}

func TestPartitioningProperty(t *testing.T) {
	// Random samples: width conservation + router totality always hold.
	f := func(seed uint64, widthSel uint16) bool {
		width := int(widthSel%8000) + 100
		stats := vstats.FromSample(randomSample(500, seed))
		p, err := BuildPartitioning(stats, defaultParams(width))
		if err != nil {
			return false
		}
		total := 0
		for _, l := range p.Leaves {
			if l.Width < 1 {
				return false
			}
			total += l.Width
		}
		return total == width && len(p.Vertices) == stats.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPartitioningWorkloadOrder(t *testing.T) {
	sample := randomSample(1000, 8)
	stats := vstats.FromSample(sample)
	stats.ApplyWorkload(randomSample(200, 9))
	p, err := BuildPartitioning(stats, PartitionParams{
		Width: 2048, MinWidth: 64, CollisionC: 0.5, Order: vstats.ByFreqPerWeight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Order != vstats.ByFreqPerWeight {
		t.Error("order not recorded")
	}
	if len(p.Vertices) != stats.Len() {
		t.Error("router incomplete under workload order")
	}
}
