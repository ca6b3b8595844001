package graphgen

import (
	"fmt"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

// CarouselConfig parameterizes ZipfCarouselStream: a stream of many equal
// phases whose source popularity rotates at every phase boundary. Each
// boundary is a workload pivot, which makes the carousel the natural
// driver for long-horizon scenarios: repeated repartitioning, generation
// accumulation, and compaction pressure.
type CarouselConfig struct {
	// Vertices is the source-vertex population size.
	Vertices int
	// Destinations is the destination population per source (uniform).
	Destinations int
	// Phases is the number of workload phases; the stream pivots
	// Phases-1 times.
	Phases int
	// EdgesPerPhase is the stream length of each phase.
	EdgesPerPhase int
	// Alpha is the Zipf skew of source popularity in every phase.
	Alpha float64
	// Seed makes generation deterministic.
	Seed uint64
}

// Validate checks the configuration.
func (c CarouselConfig) Validate() error {
	if c.Vertices < 2 || c.Destinations < 1 || c.EdgesPerPhase < 1 {
		return fmt.Errorf("graphgen: carousel needs ≥2 vertices, ≥1 destinations, ≥1 edges/phase (got %d/%d/%d)",
			c.Vertices, c.Destinations, c.EdgesPerPhase)
	}
	if c.Phases < 2 {
		return fmt.Errorf("graphgen: carousel needs ≥2 phases (got %d)", c.Phases)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("graphgen: carousel needs alpha > 0 (got %v)", c.Alpha)
	}
	return nil
}

// Edges returns the total stream length.
func (c CarouselConfig) Edges() int { return c.Phases * c.EdgesPerPhase }

// SourceAt maps a popularity rank to its vertex id in the given phase.
// Rank 0 is the hottest source. The mapping rotates by Vertices/Phases
// per phase, so consecutive phases promote disjoint hot heads (as long as
// the rotation step exceeds the effective hot-set size).
func (c CarouselConfig) SourceAt(phase, rank int) uint64 {
	step := c.Vertices / c.Phases
	if step == 0 {
		step = 1
	}
	return uint64((rank + phase*step) % c.Vertices)
}

// ZipfCarouselStream generates the rotating-popularity stream. Timestamps
// are arrival indices; all weights are 1.
func ZipfCarouselStream(c CarouselConfig) ([]stream.Edge, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := hashutil.NewRNG(c.Seed)
	z := NewZipf(c.Vertices, c.Alpha, rng)
	edges := make([]stream.Edge, c.Edges())
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    c.SourceAt(i/c.EdgesPerPhase, z.Draw()),
			Dst:    uint64(uniform(rng, c.Destinations)),
			Weight: 1,
			Time:   int64(i),
		}
	}
	return edges, nil
}
