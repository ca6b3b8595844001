package sketch

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/graphstream/gsketch/internal/hashutil"
)

func TestCountMinBasic(t *testing.T) {
	cm, err := NewCountMin(1024, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	cm.Update(42, 3)
	cm.Update(42, 4)
	cm.Update(99, 1)
	if got := cm.Estimate(42); got < 7 {
		t.Errorf("estimate(42) = %d, want ≥ 7", got)
	}
	if got := cm.Count(); got != 8 {
		t.Errorf("count = %d, want 8", got)
	}
	if got := cm.Estimate(12345); got < 0 {
		t.Errorf("estimate of unseen key = %d, want ≥ 0", got)
	}
}

func TestCountMinNeverUnderestimates(t *testing.T) {
	// The defining CountMin property in the cash-register model.
	f := func(seed uint64, updates []uint8) bool {
		cm, err := NewCountMin(64, 4, seed)
		if err != nil {
			return false
		}
		truth := make(map[uint64]int64)
		for i, u := range updates {
			key := uint64(u % 32) // force collisions
			cnt := int64(i%3 + 1)
			cm.Update(key, cnt)
			truth[key] += cnt
		}
		for k, v := range truth {
			if cm.Estimate(k) < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountMinErrorBound(t *testing.T) {
	// With w = ⌈e/ε⌉, estimates exceed truth by at most ε·N with
	// probability ≥ 1-δ per query; check the bound holds for the vast
	// majority of a large batch.
	const eps, delta = 0.01, 0.01
	w, d, err := DimsFromError(eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := NewCountMin(w, d, 77)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashutil.NewRNG(5)
	truth := make(map[uint64]int64)
	var n int64
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 5000
		cm.Update(k, 1)
		truth[k]++
		n++
	}
	bound := int64(math.Ceil(eps * float64(n)))
	violations := 0
	for k, v := range truth {
		if cm.Estimate(k) > v+bound {
			violations++
		}
	}
	if frac := float64(violations) / float64(len(truth)); frac > delta*5 {
		t.Errorf("bound violated for %.2f%% of keys, want ≤ %.2f%%", frac*100, delta*500)
	}
}

func TestCountMinConservativeTighter(t *testing.T) {
	plain, _ := NewCountMin(128, 4, 9)
	cons, _ := NewCountMin(128, 4, 9)
	cons.SetConservative(true)

	rng := hashutil.NewRNG(6)
	truth := make(map[uint64]int64)
	for i := 0; i < 20000; i++ {
		k := rng.Uint64() % 1000
		plain.Update(k, 1)
		cons.Update(k, 1)
		truth[k]++
	}
	var overPlain, overCons int64
	for k, v := range truth {
		overPlain += plain.Estimate(k) - v
		overCons += cons.Estimate(k) - v
		if cons.Estimate(k) < v {
			t.Fatalf("conservative update underestimated key %d", k)
		}
		if cons.Estimate(k) > plain.Estimate(k) {
			t.Fatalf("conservative estimate exceeds plain for key %d", k)
		}
	}
	if overCons >= overPlain {
		t.Errorf("conservative total overestimate %d not below plain %d", overCons, overPlain)
	}
}

// TestCountMinConservativeUpdateDoesNotAllocate guards the per-key row-index
// scratch of conservative update: a heap slice there is one allocation per
// ingested edge.
func TestCountMinConservativeUpdateDoesNotAllocate(t *testing.T) {
	cm, _ := NewCountMin(128, 5, 9)
	cm.SetConservative(true)
	keys := []uint64{3, 5, 3, 8, 13}
	counts := []int64{1, 2, 1, 4, 1}
	if n := testing.AllocsPerRun(200, func() {
		cm.Update(21, 1)
		cm.UpdateBatch(keys, counts)
	}); n != 0 {
		t.Fatalf("conservative update allocates %v per run, want 0", n)
	}
}

func TestCountMinMerge(t *testing.T) {
	a, _ := NewCountMin(256, 4, 3)
	b, _ := NewCountMin(256, 4, 3)
	whole, _ := NewCountMin(256, 4, 3)
	rng := hashutil.NewRNG(8)
	for i := 0; i < 5000; i++ {
		k := rng.Uint64() % 400
		if i%2 == 0 {
			a.Update(k, 1)
		} else {
			b.Update(k, 1)
		}
		whole.Update(k, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count() != whole.Count() {
		t.Errorf("merged count %d != whole count %d", a.Count(), whole.Count())
	}
	for k := uint64(0); k < 400; k++ {
		if a.Estimate(k) != whole.Estimate(k) {
			t.Errorf("key %d: merged estimate %d != whole %d", k, a.Estimate(k), whole.Estimate(k))
		}
	}
}

func TestCountMinMergeIncompatible(t *testing.T) {
	a, _ := NewCountMin(256, 4, 3)
	b, _ := NewCountMin(128, 4, 3)
	if err := a.Merge(b); err == nil {
		t.Error("merge of different widths should fail")
	}
	c, _ := NewCountMin(256, 4, 4)
	if err := a.Merge(c); err == nil {
		t.Error("merge of different seeds should fail")
	}
	d, _ := NewCountMin(256, 4, 3)
	d.SetConservative(true)
	if err := a.Merge(d); err == nil {
		t.Error("merge with conservative sketch should fail")
	}
}

func TestCountMinClone(t *testing.T) {
	cm, _ := NewCountMin(64, 3, 1)
	cm.Update(5, 10)
	cp := cm.Clone()
	cp.Update(5, 7)
	if cm.Estimate(5) != 10 {
		t.Errorf("original mutated by clone update: %d", cm.Estimate(5))
	}
	if cp.Estimate(5) < 17 {
		t.Errorf("clone estimate = %d, want ≥ 17", cp.Estimate(5))
	}
}

func TestCountMinSaturation(t *testing.T) {
	cm, _ := NewCountMin(4, 1, 1)
	cm.Update(1, math.MaxUint32)
	cm.Update(1, 100)
	if got := cm.Estimate(1); got != math.MaxUint32 {
		t.Errorf("saturated cell = %d, want %d", got, uint32(math.MaxUint32))
	}
}

func TestCountMinZeroAndNegative(t *testing.T) {
	cm, _ := NewCountMin(64, 3, 1)
	cm.Update(7, 0)
	if cm.Count() != 0 {
		t.Error("zero update changed count")
	}
	assertPanics(t, "negative update", func() { cm.Update(7, -1) })
}

func TestCountMinInvalidParams(t *testing.T) {
	if _, err := NewCountMin(0, 3, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewCountMin(10, 0, 1); err == nil {
		t.Error("zero depth accepted")
	}
	if _, _, err := DimsFromError(0, 0.5); err == nil {
		t.Error("zero epsilon accepted")
	}
	if _, err := WidthFromMemory(2, 5); err == nil {
		t.Error("budget below one cell accepted")
	}
}

func TestDimsFromError(t *testing.T) {
	w, d, err := DimsFromError(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if w != 272 { // ceil(e/0.01)
		t.Errorf("width = %d, want 272", w)
	}
	if d != 5 { // ceil(ln 100) = ceil(4.605)
		t.Errorf("depth = %d, want 5", d)
	}
}

func TestWidthFromMemory(t *testing.T) {
	w, err := WidthFromMemory(1<<20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1 << 20) / (5 * CellSize); w != want {
		t.Errorf("width = %d, want %d", w, want)
	}
	if _, err := WidthFromMemory(0, 5); err == nil {
		t.Error("zero budget accepted")
	}
}

func TestCountMinMemoryBytes(t *testing.T) {
	cm, _ := NewCountMin(100, 5, 1)
	if got := cm.MemoryBytes(); got != 100*5*CellSize {
		t.Errorf("memory = %d, want %d", got, 100*5*CellSize)
	}
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
