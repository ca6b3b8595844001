package stream

// ExactCounter is the ground-truth oracle for experiments: exact per-edge
// frequencies and per-vertex aggregates, backed by hash maps. It is only
// feasible at experiment scale (the whole point of the paper is that real
// deployments cannot afford it).
type ExactCounter struct {
	edges    map[[2]uint64]int64
	vertexF  map[uint64]int64 // f_v(i): summed out-edge frequency per source
	vertexD  map[uint64]int64 // d(i): distinct out-degree per source
	total    int64
	arrivals int64
}

// NewExactCounter returns an empty counter.
func NewExactCounter() *ExactCounter {
	return &ExactCounter{
		edges:   make(map[[2]uint64]int64),
		vertexF: make(map[uint64]int64),
		vertexD: make(map[uint64]int64),
	}
}

// Observe accumulates one edge arrival.
func (c *ExactCounter) Observe(e Edge) {
	w := e.Weight
	if w == 0 {
		w = 1
	}
	k := [2]uint64{e.Src, e.Dst}
	if _, seen := c.edges[k]; !seen {
		c.vertexD[e.Src]++
	}
	c.edges[k] += w
	c.vertexF[e.Src] += w
	c.total += w
	c.arrivals++
}

// ObserveAll accumulates a slice of arrivals.
func (c *ExactCounter) ObserveAll(edges []Edge) {
	for _, e := range edges {
		c.Observe(e)
	}
}

// EdgeFrequency returns the exact accumulated frequency of (src, dst).
func (c *ExactCounter) EdgeFrequency(src, dst uint64) int64 {
	return c.edges[[2]uint64{src, dst}]
}

// VertexFrequency returns f_v(src): the summed frequency of edges
// emanating from src (Eq. 2).
func (c *ExactCounter) VertexFrequency(src uint64) int64 { return c.vertexF[src] }

// Total returns the summed weight of all arrivals (the stream volume N).
func (c *ExactCounter) Total() int64 { return c.total }

// Arrivals returns the number of Observe calls.
func (c *ExactCounter) Arrivals() int64 { return c.arrivals }

// DistinctEdges returns the number of distinct directed edges observed.
func (c *ExactCounter) DistinctEdges() int { return len(c.edges) }

// DistinctSources returns the number of distinct source vertices observed.
func (c *ExactCounter) DistinctSources() int { return len(c.vertexF) }

// RangeEdges calls fn for each distinct (src, dst, frequency); iteration
// order is undefined. Returning false stops the iteration.
func (c *ExactCounter) RangeEdges(fn func(src, dst uint64, freq int64) bool) {
	for k, f := range c.edges {
		if !fn(k[0], k[1], f) {
			return
		}
	}
}

// Edges returns all distinct edges with their exact frequencies as Edge
// values (Weight = exact frequency). Order is unspecified.
func (c *ExactCounter) Edges() []Edge {
	out := make([]Edge, 0, len(c.edges))
	for k, f := range c.edges {
		out = append(out, Edge{Src: k[0], Dst: k[1], Weight: f})
	}
	return out
}
