// Package hashutil provides the hashing primitives used throughout gsketch:
// a pairwise-independent hash family over the Mersenne prime 2^61-1 for
// sketch row hashing, SplitMix64 mixing for key derivation, FNV-1a string
// keying, and a small deterministic RNG suitable for reproducible seeding.
//
// All hashing in this module is deterministic given a seed, which makes
// sketch construction, partitioning and the experiment harness fully
// reproducible.
package hashutil

import (
	"math/bits"
)

// MersennePrime61 is 2^61 - 1, a Mersenne prime. Arithmetic modulo this
// prime admits a fast reduction (shift + add) and leaves 3 spare bits in a
// uint64, which is why it is the standard choice for pairwise-independent
// hashing of 64-bit keys.
const MersennePrime61 = (1 << 61) - 1

// mod61 reduces x modulo 2^61-1. The input may be any uint64.
func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & MersennePrime61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// mulMod61 returns (a * b) mod (2^61 - 1) using a 128-bit intermediate
// product. Both operands must already be < 2^61-1.
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a*b = hi*2^64 + lo. 2^64 ≡ 2^3 (mod 2^61-1), so:
	//   a*b ≡ hi*8 + lo (mod 2^61-1)
	// hi < 2^58 here because a,b < 2^61, so hi*8 cannot overflow.
	return mod61(mod61(hi<<3) + mod61(lo))
}

// PairwiseHash is one member of a pairwise-independent (2-universal) hash
// family h(x) = ((a*x + b) mod p) mod w with p = 2^61-1. The zero value is
// not usable; construct members with NewPairwiseFamily.
type PairwiseHash struct {
	a, b  uint64
	width uint64
}

// Width returns the size of the hash's output range [0, w).
func (h PairwiseHash) Width() int { return int(h.width) }

// Hash maps a 64-bit key onto [0, width). The uniform value in [0, p) is
// mapped onto the output range with Lemire's multiply-shift reduction
// ((v·w)>>61 here, since v < 2^61) instead of a hardware divide — the
// row-hash runs on the ingest hot path five times per edge, and the
// division was its single largest cost.
func (h PairwiseHash) Hash(x uint64) int {
	v := mod61(mulMod61(h.a, mod61(x)) + h.b)
	hi, lo := bits.Mul64(v, h.width)
	return int(hi<<3 | lo>>61)
}

// Mod61 reduces an arbitrary 64-bit key modulo 2^61-1. It is the
// per-key half of Hash: batch kernels hoist it so d row hashes of the same
// key reduce the key once instead of d times.
func Mod61(x uint64) uint64 { return mod61(x) }

// Params exposes the member's (a, b) coefficients so batch kernels can
// hand-inline the hash arithmetic (Hash itself is past the compiler's
// inlining budget, and a call per row per key is measurable on the hot
// paths). With xr = Mod61(x), the value v = (a·xr + b) mod 2^61-1 followed
// by the Lemire reduction (v·Width())>>61 reproduces Hash(x) exactly.
func (h PairwiseHash) Params() (a, b uint64) { return h.a, h.b }

// NewPairwiseFamily draws d independent members of the pairwise-independent
// family with output range [0, width), deterministically from seed.
// width and d must be positive.
func NewPairwiseFamily(d, width int, seed uint64) []PairwiseHash {
	if d <= 0 {
		panic("hashutil: family size must be positive")
	}
	fam := make([]PairwiseHash, d)
	FillPairwiseFamily(fam, width, seed)
	return fam
}

// FillPairwiseFamily draws the members NewPairwiseFamily(len(fam), width,
// seed) returns into fam, for callers that build many families and reuse
// one slice.
func FillPairwiseFamily(fam []PairwiseHash, width int, seed uint64) {
	if width <= 0 {
		panic("hashutil: hash width must be positive")
	}
	rng := NewRNG(seed)
	for i := range fam {
		// a must be nonzero for pairwise independence.
		a := rng.Uint64()%(MersennePrime61-1) + 1
		b := rng.Uint64() % MersennePrime61
		fam[i] = PairwiseHash{a: a, b: b, width: uint64(width)}
	}
}

// Mix64 is the SplitMix64 finalizer: a fast, high-quality 64-bit mixing
// permutation. It is used to derive edge keys and to decorrelate seeds.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EdgeKey derives a single 64-bit key for the directed edge (src, dst).
// The construction mixes src and dst asymmetrically so (a,b) and (b,a)
// collide no more often than random pairs.
func EdgeKey(src, dst uint64) uint64 {
	return EdgeKeyMixed(Mix64(src), dst)
}

// EdgeKeyMixed is EdgeKey with Mix64(src) precomputed. The batch router
// shares one source mixing between partition routing and key derivation.
func EdgeKeyMixed(mixedSrc, dst uint64) uint64 {
	return Mix64(mixedSrc*0x9e3779b97f4a7c15 + dst + 0x7f4a7c159e3779b9)
}

// RNG is a small deterministic pseudo-random generator (SplitMix64 stream).
// It is intentionally independent of math/rand so that hashing seeds remain
// stable across Go releases. Not safe for concurrent use.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return Mix64(r.state)
}

// Split derives an independent child generator; the parent's stream is
// advanced by one step. Useful for giving each subsystem its own stream.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x1bad5eed1bad5eed)
}
