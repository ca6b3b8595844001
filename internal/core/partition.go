package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"github.com/graphstream/gsketch/internal/vstats"
)

// Leaf describes one materialized localized sketch of the partitioning.
type Leaf struct {
	// Width is the leaf's column count: a floor plus its share of the rest
	// of the budget in proportion to √(F̃(S_i)·G(S_i)) (see leafWidths).
	Width int
	// Vertices is the number of sampled source vertices routed here.
	Vertices int
	// SumF is F̃(S_i): the summed estimated vertex frequency of the leaf.
	SumF float64
	// SumD is Σ d̃(m): the estimated number of distinct edges counted here.
	SumD float64
	// sumG is G(S_i), the leaf's Σg objective weight; it is set only while
	// BuildPartitioning assigns widths.
	sumG float64
}

// Partitioning is the output of the partitioning tree: the leaf sketch
// layout plus the vertex→leaf assignment that becomes the router.
type Partitioning struct {
	Leaves []Leaf
	// Vertices and LeafOf are the assignment as parallel slices: every
	// sampled source vertex, ascending by id, beside its leaf index — the
	// order the router is filled in.
	Vertices []uint64
	LeafOf   []int32
	// Order records which scenario objective built this partitioning.
	Order vstats.SortOrder
	// WidthBudget is the input width; the leaf widths sum to it exactly.
	WidthBudget int
}

// PartitionParams are the tree-construction inputs.
type PartitionParams struct {
	// Width is the total column budget to divide (excludes the outlier
	// sketch; the caller carves that out first).
	Width int
	// MinWidth is w0: nodes narrower than this materialize (criterion 1),
	// and w0/2 is the floor of every leaf's final width.
	MinWidth int
	// CollisionC is C: nodes with Σd̃ ≤ C·width materialize (criterion 2,
	// Theorem 1).
	CollisionC float64
	// MaxPartitions caps the leaf count (0 = unbounded).
	MaxPartitions int
	// Order selects the scenario objective (Eq. 9 vs Eq. 11).
	Order vstats.SortOrder
}

// node is a contiguous range [lo, hi) of the sorted vertex array with its
// allocated width.
type node struct {
	lo, hi int
	width  int
}

// BuildPartitioning runs the partitioning tree of Figures 2 and 3 over the
// sample statistics. The vertex array is sorted once by the scenario key;
// every tree node is then a contiguous range, and the optimal pivot of the
// Eq. 9 / Eq. 11 objective is found in O(range) with prefix sums. The tree
// halves a node's width at each split only to decide where to stop
// (criteria 1 and 2); once it is built, leafWidths divides the budget over
// the leaves in one pass.
func BuildPartitioning(stats *vstats.Stats, p PartitionParams) (*Partitioning, error) {
	if stats.Len() == 0 {
		return nil, ErrEmptySample
	}
	if p.Width < 1 {
		return nil, fmt.Errorf("%w: partition width %d", ErrConfig, p.Width)
	}
	if p.MinWidth < 2 {
		return nil, fmt.Errorf("%w: min width %d must be ≥ 2", ErrConfig, p.MinWidth)
	}
	if !(p.CollisionC > 0 && p.CollisionC < 1) {
		return nil, fmt.Errorf("%w: collision constant %v", ErrConfig, p.CollisionC)
	}

	verts := stats.Sorted(p.Order)
	n := len(verts)

	// Prefix sums over the sorted order:
	//   prefF[i] = Σ_{j<i} f̃v(j)                 (F̃ of a range)
	//   prefD[i] = Σ_{j<i} d̃(j)                  (distinct-edge load)
	//   prefG[i] = Σ_{j<i} g(j), the objective weight:
	//     scenario A: g = d̃²/f̃v       (Eq. 9 term d̃·F̃/(f̃v/d̃) = F̃·d̃²/f̃v)
	//     scenario B: g = w̃·d̃/f̃v      (Eq. 11 term w̃·F̃/(f̃v/d̃))
	prefF := make([]float64, n+1)
	prefD := make([]float64, n+1)
	prefG := make([]float64, n+1)
	for i, v := range verts {
		g := 0.0
		if v.F > 0 {
			switch p.Order {
			case vstats.ByAvgFreq:
				g = v.D * v.D / v.F
			case vstats.ByFreqPerWeight:
				g = v.W * v.D / v.F
			default:
				return nil, fmt.Errorf("%w: unknown sort order %v", ErrConfig, p.Order)
			}
		}
		prefF[i+1] = prefF[i] + v.F
		prefD[i+1] = prefD[i] + v.D
		prefG[i+1] = prefG[i] + g
	}

	part := &Partitioning{
		Order:       p.Order,
		WidthBudget: p.Width,
	}
	// Leaves are contiguous ranges of the sorted array, so the assignment
	// is first written by sorted position, sequentially.
	leafAt := make([]int32, n)

	splittable := func(nd node) bool {
		if nd.hi-nd.lo < 2 || nd.width < 2 {
			return false
		}
		if nd.width < p.MinWidth {
			return false // criterion 1
		}
		if prefD[nd.hi]-prefD[nd.lo] <= p.CollisionC*float64(nd.width) {
			return false // criterion 2 (Theorem 1)
		}
		return true
	}

	materialize := func(nd node) {
		idx := int32(len(part.Leaves))
		for i := nd.lo; i < nd.hi; i++ {
			leafAt[i] = idx
		}
		part.Leaves = append(part.Leaves, Leaf{
			Width:    nd.width,
			Vertices: nd.hi - nd.lo,
			SumF:     prefF[nd.hi] - prefF[nd.lo],
			SumD:     prefD[nd.hi] - prefD[nd.lo],
			sumG:     prefG[nd.hi] - prefG[nd.lo],
		})
	}

	active := []node{{0, n, p.Width}}
	if !splittable(active[0]) {
		materialize(active[0])
		active = nil
	}
	for len(active) > 0 {
		nd := active[len(active)-1]
		active = active[:len(active)-1]

		// Partition cap: splitting nd yields ≥2 eventual leaves, every
		// remaining active node ≥1, plus the leaves already built.
		if p.MaxPartitions > 0 && len(part.Leaves)+len(active)+2 > p.MaxPartitions {
			materialize(nd)
			continue
		}

		k := bestPivot(nd, prefF, prefG)
		w1 := nd.width / 2
		w2 := nd.width - w1
		children := [2]node{
			{nd.lo, k, w1},
			{k, nd.hi, w2},
		}
		for _, ch := range children {
			if splittable(ch) {
				active = append(active, ch)
			} else {
				materialize(ch)
			}
		}
	}

	part.Vertices, part.LeafOf = assignmentByID(verts, leafAt)

	leafWidths(part.Leaves, p.Width, min(p.MinWidth/2, p.Width/len(part.Leaves)))
	return part, nil
}

// assignmentByID reorders the assignment from sorted position (verts[i]
// belongs to leaf leafAt[i]) to ascending vertex id. leafAt is reused for
// the reordered leaves.
func assignmentByID(verts []vstats.VertexStat, leafAt []int32) ([]uint64, []int32) {
	type route struct {
		id   uint64
		leaf int32
	}
	routes := make([]route, len(verts))
	for i, v := range verts {
		routes[i] = route{v.ID, leafAt[i]}
	}
	slices.SortFunc(routes, func(a, b route) int { return cmp.Compare(a.id, b.id) })
	ids := make([]uint64, len(routes))
	for i, r := range routes {
		ids[i], leafAt[i] = r.id, r.leaf
	}
	return ids, leafAt
}

// bestPivot scans every split point of nd in sorted order and returns the k
// minimizing the scenario objective
//
//	E′(k) = F̃(S1)·G(S1) + F̃(S2)·G(S2)
//
// (Eq. 9 / Eq. 11 up to the constant terms dropped in Eq. 8). Ties resolve
// to the smallest k for determinism.
func bestPivot(nd node, prefF, prefG []float64) int {
	bestK := nd.lo + 1
	bestE := math.Inf(1)
	fLo, gLo := prefF[nd.lo], prefG[nd.lo]
	fHi, gHi := prefF[nd.hi], prefG[nd.hi]
	for k := nd.lo + 1; k <= nd.hi-1; k++ {
		e := (prefF[k]-fLo)*(prefG[k]-gLo) + (fHi-prefF[k])*(gHi-prefG[k])
		if e < bestE {
			bestE = e
			bestK = k
		}
	}
	return bestK
}

// leafWidths sets every leaf's width to floor + a share of the rest of the
// budget proportional to √(F̃ᵢ·Gᵢ): the widths that minimize the §4.1
// objective Σᵢ F̃ᵢ·Gᵢ/wᵢ under Σᵢ wᵢ = budget. The floor keeps a leaf whose
// sample weight is near zero countable. Shares are rounded down, clamped so
// that the running sum cannot pass the budget, and the integer remainder
// is handed out round-robin, so the widths sum to budget exactly. floor·n
// must not exceed budget. The square roots are taken separately so that
// weights near the float range's top cannot overflow into Inf or NaN.
func leafWidths(leaves []Leaf, budget, floor int) {
	weight := func(l Leaf) float64 { return math.Sqrt(l.SumF) * math.Sqrt(l.sumG) }
	var total float64
	for _, l := range leaves {
		total += weight(l)
	}
	proportional := total > 0 && !math.IsInf(total, 1)
	rest := budget - floor*len(leaves)
	assigned := 0
	for i := range leaves {
		add := 0
		if proportional {
			add = min(int(float64(rest)*(weight(leaves[i])/total)), rest-assigned)
		}
		leaves[i].Width = floor + add
		leaves[i].sumG = 0
		assigned += add
	}
	for i := 0; assigned < rest; i++ {
		leaves[i%len(leaves)].Width++
		assigned++
	}
}
