package query

import (
	"sort"

	"github.com/graphstream/gsketch/internal/graphgen"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// Query-set and workload-sample generators mirroring §6.3–§6.4.
//
// Uniform edge queries draw uniformly over the distinct edges of the
// stream ("generated by uniform sampling"). Zipf workloads draw over a
// seeded random permutation of the distinct edges with P(rank k) ∝
// k^(-α): query popularity is skewed but deliberately independent of edge
// frequency, which is exactly the regime where the paper's scenario B
// helps ("frequently occurring edges in the query workload sample may not
// be present as frequently in the data sample").

// UniformEdgeQueries draws n edge queries uniformly (with replacement)
// from the distinct edges of the counted stream.
func UniformEdgeQueries(exact *stream.ExactCounter, n int, seed uint64) []EdgeQuery {
	edges := distinctEdges(exact)
	if len(edges) == 0 || n <= 0 {
		return nil
	}
	rng := hashutil.NewRNG(seed)
	out := make([]EdgeQuery, n)
	for i := range out {
		e := edges[int(rng.Uint64()%uint64(len(edges)))]
		out[i] = EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// ZipfEdgeQueries draws n edge queries from the Zipf(alpha) query
// popularity distribution over distinct edges. The permutation assigning
// ranks to edges is derived from permSeed; drawing uses drawSeed. Workload
// samples and query sets built with the same permSeed share the popularity
// ranking — the property that makes a workload sample predictive.
func ZipfEdgeQueries(exact *stream.ExactCounter, n int, alpha float64, permSeed, drawSeed uint64) []EdgeQuery {
	edges := distinctEdges(exact)
	if len(edges) == 0 || n <= 0 {
		return nil
	}
	permuteEdges(edges, permSeed)
	z := graphgen.NewZipf(len(edges), alpha, hashutil.NewRNG(drawSeed))
	out := make([]EdgeQuery, n)
	for i := range out {
		e := edges[z.Draw()]
		out[i] = EdgeQuery{Src: e.Src, Dst: e.Dst}
	}
	return out
}

// ZipfWorkloadSample draws a workload sample of n edges under the same
// popularity model as ZipfEdgeQueries. The result feeds
// vstats.ApplyWorkload / core.BuildGSketch.
func ZipfWorkloadSample(exact *stream.ExactCounter, n int, alpha float64, permSeed, drawSeed uint64) []stream.Edge {
	qs := ZipfEdgeQueries(exact, n, alpha, permSeed, drawSeed)
	out := make([]stream.Edge, len(qs))
	for i, q := range qs {
		out[i] = stream.Edge{Src: q.Src, Dst: q.Dst, Weight: 1}
	}
	return out
}

// SubgraphConfig parameterizes BFS subgraph-query extraction (§6.3: "first
// uniformly sampling vertices as seeds … then exploring the seeds'
// neighborhood by BFS traversal"; each subgraph has 10 edges).
type SubgraphConfig struct {
	// Count is the number of subgraph queries.
	Count int
	// EdgesPer is the number of edges per subgraph (paper: 10).
	EdgesPer int
	// Agg is the aggregate Γ (paper: SUM).
	Agg Aggregate
	// Seed drives seed-vertex choice and BFS edge order.
	Seed uint64
	// ZipfAlpha, when positive, draws seed vertices from a Zipf
	// distribution over the vertex permutation instead of uniformly —
	// used by the §6.4 experiments.
	ZipfAlpha float64
}

// BFSSubgraphQueries grows subgraph queries by randomized BFS over the
// distinct-edge adjacency of the counted stream. Seeds whose reachable
// neighbourhood has fewer than EdgesPer edges are padded by restarting
// from additional random vertices, so every returned query has exactly
// EdgesPer constituent edges (matching the paper's fixed 10-edge
// subgraphs).
func BFSSubgraphQueries(exact *stream.ExactCounter, cfg SubgraphConfig) []SubgraphQuery {
	if cfg.Count <= 0 || cfg.EdgesPer <= 0 {
		return nil
	}
	grow := subgraphGrower(exact, cfg, cfg.Seed)
	if grow == nil {
		return nil
	}
	queries := make([]SubgraphQuery, 0, cfg.Count)
	for len(queries) < cfg.Count {
		if q := grow(); len(q) == cfg.EdgesPer {
			queries = append(queries, SubgraphQuery{Edges: q, Agg: cfg.Agg})
		}
	}
	return queries
}

// SubgraphWorkloadSample draws a §6.4 workload sample of n edges from the
// subgraph query process that BFSSubgraphQueries(exact, cfg) samples: the
// same seed-vertex permutation (cfg.Seed), independent draws from
// drawSeed, and the grown subgraphs' edges flattened in order, the last
// subgraph cut at n. Count is ignored.
func SubgraphWorkloadSample(exact *stream.ExactCounter, n int, cfg SubgraphConfig, drawSeed uint64) []stream.Edge {
	if n <= 0 || cfg.EdgesPer <= 0 {
		return nil
	}
	grow := subgraphGrower(exact, cfg, drawSeed)
	if grow == nil {
		return nil
	}
	out := make([]stream.Edge, 0, n)
	for len(out) < n {
		q := grow()
		if len(q) != cfg.EdgesPer {
			continue
		}
		for _, e := range q[:min(len(q), n-len(out))] {
			out = append(out, stream.Edge{Src: e.Src, Dst: e.Dst, Weight: 1})
		}
	}
	return out
}

// subgraphGrower builds the distinct-edge adjacency of the stream and
// returns a function growing one subgraph of up to cfg.EdgesPer edges per
// call, drawing from rngSeed; seed vertices are uniform, or Zipf over the
// permutation fixed by cfg.Seed when cfg.ZipfAlpha > 0. It returns nil for
// an empty stream.
func subgraphGrower(exact *stream.ExactCounter, cfg SubgraphConfig, rngSeed uint64) func() []EdgeQuery {
	adj := make(map[uint64][]uint64)
	var vertices []uint64
	exact.RangeEdges(func(src, dst uint64, _ int64) bool {
		if _, ok := adj[src]; !ok {
			vertices = append(vertices, src)
		}
		adj[src] = append(adj[src], dst)
		return true
	})
	if len(vertices) == 0 {
		return nil
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	for _, v := range vertices {
		n := adj[v]
		sort.Slice(n, func(i, j int) bool { return n[i] < n[j] })
	}

	rng := hashutil.NewRNG(rngSeed)
	var seedZipf *graphgen.Zipf
	if cfg.ZipfAlpha > 0 {
		permuteU64(vertices, cfg.Seed^0x5eed)
		seedZipf = graphgen.NewZipf(len(vertices), cfg.ZipfAlpha, rng.Split())
	}
	drawSeed := func() uint64 {
		if seedZipf != nil {
			return vertices[seedZipf.Draw()]
		}
		return vertices[int(rng.Uint64()%uint64(len(vertices)))]
	}
	return func() []EdgeQuery { return growSubgraph(adj, drawSeed, cfg.EdgesPer, rng) }
}

// growSubgraph runs a randomized BFS from seed vertices until target edges
// are collected: at each frontier node the next edge explored is picked at
// random (§6.3). Restarts from fresh seeds when the frontier starves.
func growSubgraph(adj map[uint64][]uint64, drawSeed func() uint64, target int, rng *hashutil.RNG) []EdgeQuery {
	seen := make(map[[2]uint64]struct{}, target)
	var edges []EdgeQuery
	var frontier []uint64

	const maxRestarts = 64
	for restarts := 0; len(edges) < target && restarts < maxRestarts; restarts++ {
		frontier = append(frontier[:0], drawSeed())
		for len(frontier) > 0 && len(edges) < target {
			// Pop a random frontier vertex (randomized BFS order).
			i := int(rng.Uint64() % uint64(len(frontier)))
			v := frontier[i]
			frontier[i] = frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]

			nbrs := adj[v]
			if len(nbrs) == 0 {
				continue
			}
			// Visit neighbours starting from a random rotation.
			start := int(rng.Uint64() % uint64(len(nbrs)))
			for k := 0; k < len(nbrs) && len(edges) < target; k++ {
				u := nbrs[(start+k)%len(nbrs)]
				key := [2]uint64{v, u}
				if _, dup := seen[key]; dup {
					continue
				}
				seen[key] = struct{}{}
				edges = append(edges, EdgeQuery{Src: v, Dst: u})
				frontier = append(frontier, u)
			}
		}
	}
	return edges
}

func distinctEdges(exact *stream.ExactCounter) []stream.Edge {
	edges := exact.Edges()
	// Deterministic base order before seeded permutation.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	return edges
}

func permuteEdges(edges []stream.Edge, seed uint64) {
	rng := hashutil.NewRNG(seed)
	for i := len(edges) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		edges[i], edges[j] = edges[j], edges[i]
	}
}

func permuteU64(s []uint64, seed uint64) {
	rng := hashutil.NewRNG(seed)
	for i := len(s) - 1; i > 0; i-- {
		j := int(rng.Uint64() % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}
