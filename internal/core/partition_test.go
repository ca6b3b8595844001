package core

import (
	"errors"
	"math"
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
		if total+p.SavedWidth != width {
			t.Errorf("width %d: Σleaves(%d) + saved(%d) != budget", width, total, p.SavedWidth)
		}
		if total > width {
			t.Errorf("width %d: leaves exceed budget", width)
		}
		// Default redistribution is proportional: nothing left unplaced
		// unless there was only trimmed leaves.
		if p.SavedWidth != 0 {
			allTrimmed := true
			for _, l := range p.Leaves {
				if !l.Trimmed {
					allTrimmed = false
				}
			}
			if !allTrimmed {
				t.Errorf("width %d: saved width %d with untrimmed leaves present", width, p.SavedWidth)
			}
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
	// narrowest leaves are w0/2 wide: 1024 → 512 → 256 → 128(<w0 stops):
	// at most 8 leaves, none narrower than 128 (untrimmed).
	if len(p.Leaves) > 8 {
		t.Errorf("%d leaves with w0=256 from width 1024, want ≤ 8", len(p.Leaves))
	}
	for i, l := range p.Leaves {
		if !l.Trimmed && l.Width < 128 {
			t.Errorf("leaf %d: untrimmed width %d < w0/2", i, l.Width)
		}
	}
}

func TestPartitioningCollisionTermination(t *testing.T) {
	// A tiny sample (Σd̃ small) must terminate by Theorem 1 and trim.
	var sample []stream.Edge
	for i := 0; i < 10; i++ {
		sample = append(sample, stream.Edge{Src: uint64(i), Dst: 1, Weight: 1})
	}
	stats := vstats.FromSample(sample)
	p, err := BuildPartitioning(stats, PartitionParams{
		Width: 4096, MinWidth: 64, CollisionC: 0.5, Order: vstats.ByAvgFreq,
		Redistribute: RedistributeNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Leaves) != 1 {
		t.Fatalf("expected a single trimmed leaf, got %d", len(p.Leaves))
	}
	l := p.Leaves[0]
	if !l.Trimmed {
		t.Error("leaf not trimmed despite Σd̃ ≤ C·width")
	}
	if l.Width != 10 { // ceil(Σd̃) = 10 distinct edges
		t.Errorf("trimmed width = %d, want 10", l.Width)
	}
	if p.SavedWidth != 4096-10 {
		t.Errorf("saved = %d, want %d", p.SavedWidth, 4096-10)
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

func TestRedistributionPolicies(t *testing.T) {
	// Craft leaves with one trimmed leaf and two untrimmed.
	mk := func() []Leaf {
		return []Leaf{
			{Width: 10, Trimmed: true, SumF: 100},
			{Width: 50, SumF: 300},
			{Width: 40, SumF: 100},
		}
	}
	budget := 200 // pool = 100

	l := mk()
	redistribute(l, budget, RedistributeNone)
	if l[0].Width != 10 || l[1].Width != 50 || l[2].Width != 40 {
		t.Error("RedistributeNone mutated widths")
	}

	l = mk()
	redistribute(l, budget, RedistributeEven)
	if l[0].Width != 10 {
		t.Error("even policy gave width to the trimmed leaf")
	}
	if l[1].Width+l[2].Width != 190 {
		t.Errorf("even policy total = %d, want 190", l[1].Width+l[2].Width)
	}
	if diff := l[1].Width - l[2].Width; diff < 9 || diff > 11 {
		t.Errorf("even split unbalanced: %d vs %d", l[1].Width, l[2].Width)
	}

	l = mk()
	redistribute(l, budget, RedistributeProportional)
	if l[0].Width != 10 {
		t.Error("proportional policy gave width to the trimmed leaf")
	}
	if l[1].Width+l[2].Width != 190 {
		t.Errorf("proportional total = %d, want 190", l[1].Width+l[2].Width)
	}
	// Leaf 1 has 3x the load of leaf 2: it should get ~75 of the 100.
	if l[1].Width < 120 || l[1].Width > 130 {
		t.Errorf("proportional gave leaf 1 width %d, want ≈ 125", l[1].Width)
	}
}

func TestRedistributionAllTrimmed(t *testing.T) {
	l := []Leaf{
		{Width: 10, Trimmed: true, SumF: 1},
		{Width: 20, Trimmed: true, SumF: 1},
	}
	redistribute(l, 100, RedistributeEven)
	if l[0].Width+l[1].Width != 100 {
		t.Errorf("all-trimmed redistribution total = %d, want 100", l[0].Width+l[1].Width)
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
		if total > width {
			return false
		}
		return len(p.Vertices) == stats.Len()
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
