package sketch

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
)

// bankFixture is a bank beside the same sketches allocated one by one — the
// layout the bank replaced — which take every update through
// CountMin.Update in stream order and are the reference for everything the
// bank holds.
type bankFixture struct {
	widths []int
	depth  int
	bank   *Bank
	ref    []*CountMin
}

// newBankFixture mixes the widths 1, 3, 52 and 4096 over the shards. Only
// the first few shards of a large bank get the widest, to keep the sweep's
// memory in megabytes.
func newBankFixture(t *testing.T, shards, depth int, conservative bool) *bankFixture {
	t.Helper()
	f := &bankFixture{widths: make([]int, shards), depth: depth, ref: make([]*CountMin, shards)}
	seeds := make([]uint64, shards)
	for i := range f.widths {
		f.widths[i] = []int{4096, 1, 3, 52}[(i+shards)%4]
		if f.widths[i] == 4096 && i >= 32 {
			f.widths[i] = 52
		}
		seeds[i] = hashutil.Mix64(uint64(i) + 7)
		cm, err := NewCountMin(f.widths[i], depth, seeds[i])
		if err != nil {
			t.Fatal(err)
		}
		cm.SetConservative(conservative)
		f.ref[i] = cm
	}
	bank, err := NewBank(f.widths, depth, seeds, conservative)
	if err != nil {
		t.Fatal(err)
	}
	f.bank = bank
	return f
}

// refBytes is what the reference sketches serialize to, back to back.
func (f *bankFixture) refBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, cm := range f.ref {
		if _, err := cm.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func bankBytes(t *testing.T, b *Bank) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := b.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// routedRun is one run of routed positions.
type routedRun struct {
	shards []int32
	keys   []uint64
	counts []int64
}

func (r *routedRun) swap(i, j int) {
	r.shards[i], r.shards[j] = r.shards[j], r.shards[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.counts[i], r.counts[j] = r.counts[j], r.counts[i]
}

// drawRun draws n positions: shards skewed towards the last one (the
// outlier of a gSketch), keys from a small universe so cells collide, and
// counts that are mostly small, sometimes zero and sometimes large enough
// to drive a cell to the 32-bit ceiling within a few hits.
func drawRun(rng *hashutil.RNG, n, shards int) routedRun {
	r := routedRun{make([]int32, n), make([]uint64, n), make([]int64, n)}
	for i := 0; i < n; i++ {
		r.shards[i] = int32(shards - 1)
		if rng.Uint64()%3 != 0 {
			r.shards[i] = int32(rng.Uint64() % uint64(shards))
		}
		r.keys[i] = rng.Uint64() % 512
		switch v := rng.Uint64() % 64; {
		case v == 0:
			r.counts[i] = 0
		case v < 4:
			r.counts[i] = math.MaxUint32/3 + int64(v)
		default:
			r.counts[i] = int64(v)
		}
	}
	return r
}

// TestBankRoutedMatchesSequential is the bank's equivalence property: runs
// of routed positions, reordered the ways a caller may reorder them, leave
// the bank exactly where the same updates applied one by one to separately
// allocated CountMin sketches leave those — cells, volumes and serialized
// bytes — and EstimateRouted answers what they answer. Plain sketches take
// any order within a run; conservative-update sketches take shard-major
// runs that keep each shard's positions in stream order, which is what the
// routed-batch grouping hands over.
func TestBankRoutedMatchesSequential(t *testing.T) {
	for _, shards := range []int{1, 2, 65, 4097} {
		for _, depth := range []int{1, 5, 17} {
			for _, conservative := range []bool{false, true} {
				name := fmt.Sprintf("shards=%d/depth=%d/conservative=%v", shards, depth, conservative)
				t.Run(name, func(t *testing.T) {
					f := newBankFixture(t, shards, depth, conservative)
					rng := hashutil.NewRNG(uint64(shards*100 + depth))
					for _, n := range []int{0, 1, 7, 1, 300, 0, 2500, 51, 52} {
						run := drawRun(rng, n, shards)
						for i := range run.shards {
							f.ref[run.shards[i]].Update(run.keys[i], run.counts[i])
						}
						if !conservative {
							for i := n - 1; i > 0; i-- {
								run.swap(i, int(rng.Uint64()%uint64(i+1)))
							}
						}
						if conservative || n%2 == 1 {
							// Shard-major, stable within a shard.
							order := make([]int, n)
							for i := range order {
								order[i] = i
							}
							slices.SortStableFunc(order, func(a, b int) int { return int(run.shards[a]) - int(run.shards[b]) })
							sorted := routedRun{make([]int32, n), make([]uint64, n), make([]int64, n)}
							for to, from := range order {
								sorted.shards[to], sorted.keys[to], sorted.counts[to] = run.shards[from], run.keys[from], run.counts[from]
							}
							run = sorted
						}
						f.bank.UpdateRouted(run.shards, run.keys, run.counts)
					}
					f.check(t)

					// A bank read back from its bytes is the same bank.
					read, err := ReadBank(bytes.NewReader(bankBytes(t, f.bank)), f.widths, depth)
					if err != nil {
						t.Fatal(err)
					}
					f.bank = read
					f.check(t)
				})
			}
		}
	}
}

// check compares the bank with the reference sketches: serialized bytes,
// per-shard volumes and views, and routed estimates over shuffled
// positions.
func (f *bankFixture) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(bankBytes(t, f.bank), f.refBytes(t)) {
		t.Fatal("bank bytes differ from the separately allocated sketches' bytes")
	}
	saturated := false
	for i, ref := range f.ref {
		view := f.bank.Sketch(i)
		if f.bank.Count(i) != ref.Count() || view.Count() != ref.Count() {
			t.Fatalf("shard %d: volume %d (table) / %d (view), want %d", i, f.bank.Count(i), view.Count(), ref.Count())
		}
		if view.Width() != ref.Width() || view.Seed() != ref.Seed() || view.Conservative() != ref.Conservative() {
			t.Fatalf("shard %d: view does not describe the reference sketch", i)
		}
		if !slices.Equal(view.cells, ref.cells) {
			t.Fatalf("shard %d: cells differ", i)
		}
		saturated = saturated || slices.Contains(ref.cells, maxCell)
	}
	if !saturated {
		t.Fatal("no cell reached the 32-bit ceiling; the fixture no longer covers saturation")
	}
	rng := hashutil.NewRNG(99)
	probe := drawRun(rng, 1000, len(f.ref))
	out := make([]int64, len(probe.keys))
	f.bank.EstimateRouted(probe.shards, probe.keys, out)
	for i, got := range out {
		shard, key := probe.shards[i], probe.keys[i]
		if want := f.ref[shard].Estimate(key); got != want || f.bank.Sketch(int(shard)).Estimate(key) != want {
			t.Fatalf("position %d (shard %d, key %d): routed %d, view %d, want %d",
				i, shard, key, got, f.bank.Sketch(int(shard)).Estimate(key), want)
		}
	}
	f.bank.EstimateRouted(nil, nil, nil) // an empty run is a no-op
}

// TestRowHashMatchesPairwiseHash pins the kernels' inlined row hash, with
// its shortened reduction, to hashutil.PairwiseHash.Hash on the same
// coefficients.
func TestRowHashMatchesPairwiseHash(t *testing.T) {
	rng := hashutil.NewRNG(5)
	for _, width := range []int{1, 3, 52, 4096, 1<<31 - 1} {
		const depth = 5
		seed := rng.Uint64()
		rows := make([]rowCoef, depth)
		familyCoefs(rows, make([]hashutil.PairwiseHash, depth), width, seed)
		fam := hashutil.NewPairwiseFamily(depth, width, seed)
		for _, key := range []uint64{0, 1, hashutil.MersennePrime61 - 1, hashutil.MersennePrime61, math.MaxUint64, rng.Uint64(), rng.Uint64()} {
			for r, p := range rows {
				if got, want := rowCell(p.a, p.b, hashutil.Mod61(key), uint64(width)), fam[r].Hash(key); got != uint64(want) {
					t.Fatalf("width %d row %d key %#x: rowCell %d, PairwiseHash.Hash %d", width, r, key, got, want)
				}
			}
		}
	}
}

// TestBankViewsAliasTheArena checks that a view is the bank, not a copy:
// writes through either side are read by the other, and a clone detaches.
func TestBankViewsAliasTheArena(t *testing.T) {
	f := newBankFixture(t, 5, 3, false)
	view := f.bank.Sketch(3)
	view.Update(42, 9)
	view.UpdateBatch([]uint64{42, 43}, []int64{1, 2})
	out := make([]int64, 1)
	f.bank.EstimateRouted([]int32{3}, []uint64{42}, out)
	if out[0] != 10 || f.bank.Count(3) != 12 {
		t.Fatalf("bank reads estimate %d volume %d after view writes, want 10 and 12", out[0], f.bank.Count(3))
	}
	f.bank.UpdateRouted([]int32{3}, []uint64{42}, []int64{5})
	if view.Estimate(42) != 15 || view.Count() != 17 {
		t.Fatalf("view reads estimate %d volume %d after a routed write, want 15 and 17", view.Estimate(42), view.Count())
	}
	clone := view.Clone()
	clone.Update(42, 100)
	if view.Estimate(42) != 15 || view.Count() != 17 || clone.Estimate(42) != 115 {
		t.Fatal("a clone of a view still writes into the bank")
	}
	other, _ := NewCountMin(view.Width(), view.Depth(), view.Seed())
	other.Update(42, 1)
	if err := view.Merge(other); err != nil {
		t.Fatal(err)
	}
	if f.bank.Count(3) != 18 {
		t.Fatalf("merge into a view left the bank's volume at %d, want 18", f.bank.Count(3))
	}
	columns := 0
	for _, w := range f.widths {
		columns += w
	}
	if f.bank.MemoryBytes() != columns*f.depth*CellSize {
		t.Fatalf("MemoryBytes %d for %d columns at depth %d", f.bank.MemoryBytes(), columns, f.depth)
	}
}

// TestBankUpdateRoutedPanics: a negative count panics before any counter or
// volume moves, and mismatched slices panic.
func TestBankUpdateRoutedPanics(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		f := newBankFixture(t, 3, 2, conservative)
		f.bank.UpdateRouted([]int32{0, 2}, []uint64{1, 2}, []int64{3, 4})
		before := bankBytes(t, f.bank)
		assertPanics(t, "negative routed count", func() {
			f.bank.UpdateRouted([]int32{0, 1, 2}, []uint64{1, 2, 3}, []int64{5, 6, -1})
		})
		if !bytes.Equal(bankBytes(t, f.bank), before) {
			t.Fatal("a run with a negative count was partly applied")
		}
		assertPanics(t, "update length mismatch", func() { f.bank.UpdateRouted([]int32{0}, []uint64{1, 2}, []int64{1}) })
		assertPanics(t, "estimate length mismatch", func() { f.bank.EstimateRouted([]int32{0}, []uint64{1}, nil) })
	}
}

func TestNewBankRejectsBadShapes(t *testing.T) {
	for name, fn := range map[string]func() (*Bank, error){
		"no shards":     func() (*Bank, error) { return NewBank(nil, 5, nil, false) },
		"zero depth":    func() (*Bank, error) { return NewBank([]int{4}, 0, []uint64{1}, false) },
		"zero width":    func() (*Bank, error) { return NewBank([]int{4, 0}, 5, []uint64{1, 2}, false) },
		"seed mismatch": func() (*Bank, error) { return NewBank([]int{4, 4}, 5, []uint64{1}, false) },
		"overflow":      func() (*Bank, error) { return NewBank([]int{math.MaxInt, math.MaxInt}, 5, []uint64{1, 2}, false) },
	} {
		if _, err := fn(); !errors.Is(err, ErrInvalidParams) {
			t.Errorf("%s: err = %v, want ErrInvalidParams", name, err)
		}
	}
}

// TestBankDeeperThanTheIndexBuffer: a depth whose cell indices do not fit
// the kernels' stack buffer falls back to one position at a time.
func TestBankDeeperThanTheIndexBuffer(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		f := newBankFixture(t, 2, routedBlock+1, conservative)
		rng := hashutil.NewRNG(3)
		run := drawRun(rng, 40, 2)
		for i := range run.shards {
			f.ref[run.shards[i]].Update(run.keys[i], run.counts[i])
		}
		f.bank.UpdateRouted(run.shards, run.keys, run.counts)
		if !bytes.Equal(bankBytes(t, f.bank), f.refBytes(t)) {
			t.Fatal("bank bytes differ from the separately allocated sketches' bytes")
		}
		out := make([]int64, len(run.keys))
		f.bank.EstimateRouted(run.shards, run.keys, out)
		for i, got := range out {
			if want := f.ref[run.shards[i]].Estimate(run.keys[i]); got != want {
				t.Fatalf("position %d: routed %d, want %d", i, got, want)
			}
		}
	}
}
