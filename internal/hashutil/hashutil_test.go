package hashutil

import (
	"math/big"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	cases := []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 1, 1 << 62, ^uint64(0)}
	for _, x := range cases {
		want := new(big.Int).Mod(new(big.Int).SetUint64(x), p).Uint64()
		if got := mod61(x); got != want {
			t.Errorf("mod61(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestMod61Property(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	f := func(x uint64) bool {
		want := new(big.Int).Mod(new(big.Int).SetUint64(x), p).Uint64()
		return mod61(x) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMulMod61MatchesBigInt(t *testing.T) {
	p := big.NewInt(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		want := new(big.Int).Mod(
			new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)), p).Uint64()
		return mulMod61(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseFamilyRange(t *testing.T) {
	fam := NewPairwiseFamily(5, 97, 42)
	if len(fam) != 5 {
		t.Fatalf("family size = %d, want 5", len(fam))
	}
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		x := rng.Uint64()
		for r, h := range fam {
			v := h.Hash(x)
			if v < 0 || v >= 97 {
				t.Fatalf("row %d: hash(%d) = %d out of [0,97)", r, x, v)
			}
		}
	}
}

func TestPairwiseFamilyDeterministic(t *testing.T) {
	a := NewPairwiseFamily(4, 1024, 99)
	b := NewPairwiseFamily(4, 1024, 99)
	for i := 0; i < 1000; i++ {
		x := uint64(i) * 2654435761
		for r := range a {
			if a[r].Hash(x) != b[r].Hash(x) {
				t.Fatalf("row %d not deterministic for key %d", r, x)
			}
		}
	}
}

func TestPairwiseFamilySeedsDiffer(t *testing.T) {
	a := NewPairwiseFamily(1, 1<<20, 1)
	b := NewPairwiseFamily(1, 1<<20, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		x := Mix64(uint64(i))
		if a[0].Hash(x) == b[0].Hash(x) {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds collide on %d/1000 keys; expected near 0", same)
	}
}

func TestPairwiseUniformity(t *testing.T) {
	// Chi-squared sanity check: hashed sequential keys should spread
	// nearly uniformly over a small range.
	const width, n = 64, 64 * 1000
	fam := NewPairwiseFamily(1, width, 5)
	counts := make([]int, width)
	for i := 0; i < n; i++ {
		counts[fam[0].Hash(uint64(i))]++
	}
	expected := float64(n) / width
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 63 degrees of freedom; mean 63, sd ~11. 150 is a ~8-sigma guard.
	if chi2 > 150 {
		t.Errorf("chi-squared = %.1f, distribution too uneven", chi2)
	}
}

func TestEdgeKeyAsymmetric(t *testing.T) {
	if EdgeKey(1, 2) == EdgeKey(2, 1) {
		t.Error("EdgeKey(1,2) == EdgeKey(2,1): directed edges must not collide structurally")
	}
}

func TestEdgeKeyCollisions(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for s := uint64(0); s < 300; s++ {
		for d := uint64(0); d < 300; d++ {
			k := EdgeKey(s, d)
			if prev, ok := seen[k]; ok {
				t.Fatalf("EdgeKey collision: (%d,%d) and (%d,%d)", s, d, prev[0], prev[1])
			}
			seen[k] = [2]uint64{s, d}
		}
	}
}

func TestRNGDeterministicAndSplit(t *testing.T) {
	a, b := NewRNG(11), NewRNG(11)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	parent := NewRNG(12)
	child := parent.Split()
	same := 0
	for i := 0; i < 1000; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("parent and split child agree on %d/1000 draws", same)
	}
}

func TestMix64Bijective(t *testing.T) {
	// SplitMix64's finalizer is a permutation; spot-check injectivity.
	seen := make(map[uint64]uint64, 100000)
	for i := uint64(0); i < 100000; i++ {
		m := Mix64(i)
		if prev, ok := seen[m]; ok {
			t.Fatalf("Mix64 collision: %d and %d", i, prev)
		}
		seen[m] = i
	}
}

func TestPanics(t *testing.T) {
	assertPanics(t, "zero family", func() { NewPairwiseFamily(0, 10, 1) })
	assertPanics(t, "zero width", func() { NewPairwiseFamily(1, 0, 1) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

// TestDecomposedHashMatchesHash pins the decomposition batch kernels
// inline: the hoisted key reduction Mod61, the coefficients from Params and
// the (a·xr + b) arithmetic must reproduce Hash exactly for every key.
func TestDecomposedHashMatchesHash(t *testing.T) {
	fam := NewPairwiseFamily(5, 3277, 99)
	rng := NewRNG(100)
	for i := 0; i < 200_000; i++ {
		x := rng.Uint64()
		if i < 4 {
			// Edge inputs: 0, max, the prime and its neighbour.
			x = []uint64{0, ^uint64(0), MersennePrime61, MersennePrime61 + 1}[i]
		}
		xr := Mod61(x)
		for _, h := range fam {
			want := h.Hash(x)
			// The fully decomposed form, with the product split by hand.
			a, b := h.Params()
			hi, lo := bits.Mul64(a, xr)
			v := Mod61(Mod61(hi<<3) + Mod61(lo) + b)
			vhi, vlo := bits.Mul64(v, uint64(h.Width()))
			if got := int(vhi<<3 | vlo>>61); got != want {
				t.Fatalf("decomposed hash of %#x = %d, Hash = %d", x, got, want)
			}
			if got := Mod61(mulMod61(a, xr) + b); got != Mod61(v) {
				t.Fatalf("mulMod61 path diverges for %#x", x)
			}
		}
	}
}
