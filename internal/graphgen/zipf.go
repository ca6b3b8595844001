// Package graphgen generates the synthetic graph streams used by the
// reproduction: an R-MAT generator standing in for GTGraph, a DBLP-like
// co-authorship stream, and an IP-attack-network stream (the Repro profile
// in internal/experiments says how each stands in for the paper's dataset
// and at what scale). All generators are deterministic under a seed and
// emit edges in chronological order.
package graphgen

import (
	"math"
	"sort"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// Zipf draws values in {0, …, n-1} with P(k) ∝ (k+1)^(-alpha), by inverse
// transform over a precomputed CDF. Deterministic under its RNG. This is
// the skew model the paper uses both for workload samples ("Zipf-based
// sampling … parameterized by a skewness factor α") and, internally here,
// for popularity distributions in the data generators.
type Zipf struct {
	cdf []float64
	rng *hashutil.RNG
}

// NewZipf builds a Zipf sampler over n ranks with exponent alpha > 0.
func NewZipf(n int, alpha float64, rng *hashutil.RNG) *Zipf {
	if n <= 0 {
		panic("graphgen: Zipf needs n > 0")
	}
	if alpha <= 0 {
		panic("graphgen: Zipf needs alpha > 0")
	}
	cdf := make([]float64, n)
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += math.Pow(float64(k+1), -alpha)
		cdf[k] = acc
	}
	inv := 1 / acc
	for k := range cdf {
		cdf[k] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, rng: rng}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Draw samples one rank in [0, n).
func (z *Zipf) Draw() int {
	u := float64(z.rng.Uint64()>>11) / (1 << 53)
	return sort.SearchFloat64s(z.cdf, u)
}

// uniform returns an integer in [0, n) from rng.
func uniform(rng *hashutil.RNG, n int) int {
	if n <= 0 {
		panic("graphgen: uniform over empty range")
	}
	return int(rng.Uint64() % uint64(n))
}

// float01 returns a float64 in [0, 1).
func float01(rng *hashutil.RNG) float64 {
	return float64(rng.Uint64()>>11) / (1 << 53)
}

// powF is math.Pow restricted to positive bases, aliased for brevity.
func powF(base, exp float64) float64 { return math.Pow(base, exp) }

// geometric returns a geometric variate with mean approximately mean
// (support {1, 2, …}), used for burst lengths.
func geometric(rng *hashutil.RNG, mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := float01(rng)
	// Inverse CDF of the geometric distribution on {1,2,...}.
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	if k > 1<<20 {
		k = 1 << 20
	}
	return k
}
