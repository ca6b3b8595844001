// Package sketch implements the frequency synopsis gsketch builds on: the
// CountMin sketch of Cormode & Muthukrishnan, with an optional
// conservative-update mode, and the Bank that lays the many CountMin
// sketches of one gSketch out in a single cell arena. A CountMin summarizes
// a stream of non-negative (key, count) increments over 64-bit keys and
// answers point estimates that never fall below the true count and exceed
// it by at most e·N/w with probability 1-e^-d — the one-sided interval
// every answer of this module reports.
package sketch

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// CellSize is the size in bytes of one sketch counter cell. All byte-budget
// arithmetic in this module uses this constant, mirroring the 32-bit
// counters of the paper-era C++ implementations.
const CellSize = 4

// maxCell is the saturation point of a 32-bit counter cell.
const maxCell = math.MaxUint32

// ErrInvalidParams reports an unusable sketch configuration.
var ErrInvalidParams = errors.New("sketch: invalid parameters")

// DimsFromError returns the CountMin dimensions guaranteeing, with
// probability at least 1-delta, that estimates exceed the true frequency by
// at most epsilon*N: w = ceil(e/epsilon), d = ceil(ln(1/delta)).
func DimsFromError(epsilon, delta float64) (width, depth int, err error) {
	if !(epsilon > 0 && epsilon < 1) || !(delta > 0 && delta < 1) {
		return 0, 0, fmt.Errorf("%w: epsilon=%v delta=%v (need 0<eps<1, 0<delta<1)", ErrInvalidParams, epsilon, delta)
	}
	width = int(math.Ceil(math.E / epsilon))
	depth = int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	return width, depth, nil
}

// WidthFromMemory returns the widest row count that fits a byte budget at
// the given depth: floor(bytes / (depth*CellSize)).
func WidthFromMemory(bytes, depth int) (int, error) {
	if bytes <= 0 || depth <= 0 {
		return 0, fmt.Errorf("%w: bytes=%d depth=%d", ErrInvalidParams, bytes, depth)
	}
	w := bytes / (depth * CellSize)
	if w < 1 {
		return 0, fmt.Errorf("%w: budget of %d bytes cannot fit depth %d", ErrInvalidParams, bytes, depth)
	}
	return w, nil
}

// rowCoef is one row's pairwise-independent hash coefficients (a, b), the
// one flat form in which a CountMin or a Bank keeps its hash family.
type rowCoef struct {
	a, b uint64
}

// familyCoefs draws the row hashes of one sketch from its seed into dst —
// the members hashutil.NewPairwiseFamily returns, so every hash value is
// the one PairwiseHash.Hash computes. fam is scratch of dst's length.
func familyCoefs(dst []rowCoef, fam []hashutil.PairwiseHash, width int, seed uint64) {
	hashutil.FillPairwiseFamily(fam, width, seed)
	for r, h := range fam {
		dst[r].a, dst[r].b = h.Params()
	}
}

// rowCell maps a key, already reduced by hashutil.Mod61, to its column in
// a row of the given width: PairwiseHash.Hash on the coefficients passed
// in, but small enough to inline into every kernel (Hash is past the
// inlining budget, and d calls per key dominated both batch directions).
//
// a·xr = hi·2^64 + lo and 2^64 ≡ 8 (mod 2^61-1). hi < 2^58, so hi·8 needs
// no reduction and lo folds to (lo>>61) + (lo & p); the four terms sum below
// 2^63, so one Mod61 lands on the canonical (a·xr + b) mod p, which Lemire's
// multiply-shift then maps onto [0, width).
func rowCell(a, b, xr, width uint64) uint64 {
	hi, lo := bits.Mul64(a, xr)
	v := hashutil.Mod61(hi<<3 + lo>>61 + lo&hashutil.MersennePrime61 + b)
	vhi, vlo := bits.Mul64(v, width)
	return vhi<<3 | vlo>>61
}

// AddVolume returns n+m for non-negative stream volumes, saturating at
// math.MaxInt64 where the int64 sum would wrap negative — the volume
// counterpart of a cell's saturation at 2³²−1. Every volume sum (a sketch's
// N, a shard's N_i, a batch or run total, a chain's or cluster's total)
// goes through it, so no weight, however large, turns an ε·N bound negative.
func AddVolume(n, m int64) int64 {
	if s := n + m; s >= 0 {
		return s
	}
	return math.MaxInt64
}

func addSat32(cell uint32, count int64) uint32 {
	sum := uint64(cell) + uint64(count)
	if sum > maxCell {
		return maxCell
	}
	return uint32(sum)
}
