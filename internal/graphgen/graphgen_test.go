package graphgen

import (
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func TestZipfDistribution(t *testing.T) {
	rng := hashutil.NewRNG(1)
	z := NewZipf(100, 1.5, rng)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := z.Draw()
		if k < 0 || k >= 100 {
			t.Fatalf("draw %d out of range", k)
		}
		counts[k]++
	}
	// Rank 0 should dominate and counts should be non-increasing in
	// aggregate (allow local noise; compare decade sums).
	if counts[0] < counts[10] {
		t.Error("rank 0 not more frequent than rank 10")
	}
	first, last := 0, 0
	for i := 0; i < 10; i++ {
		first += counts[i]
		last += counts[90+i]
	}
	if first < 10*last {
		t.Errorf("top decade %d not ≫ bottom decade %d for α=1.5", first, last)
	}
}

func TestZipfPanics(t *testing.T) {
	rng := hashutil.NewRNG(1)
	for _, fn := range []func(){
		func() { NewZipf(0, 1, rng) },
		func() { NewZipf(10, 0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGeometricMean(t *testing.T) {
	rng := hashutil.NewRNG(2)
	var sum int
	const n = 50000
	for i := 0; i < n; i++ {
		v := geometric(rng, 8)
		if v < 1 {
			t.Fatalf("geometric returned %d < 1", v)
		}
		sum += v
	}
	mean := float64(sum) / n
	if mean < 7 || mean > 9 {
		t.Errorf("geometric mean = %.2f, want ≈ 8", mean)
	}
	if geometric(rng, 0.5) != 1 {
		t.Error("mean ≤ 1 should return 1")
	}
}

func TestRMATGenerate(t *testing.T) {
	cfg := DefaultRMAT(10, 5000, 42)
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 5000 {
		t.Fatalf("generated %d edges, want 5000", len(edges))
	}
	maxV := uint64(1)<<10 - 1
	for i, e := range edges {
		if e.Src > maxV || e.Dst > maxV {
			t.Fatalf("edge %d out of vertex range: %+v", i, e)
		}
		if e.Weight != 1 {
			t.Fatalf("edge %d weight = %d", i, e.Weight)
		}
	}
	// Timestamps are the arrival index.
	if edges[0].Time != 0 || edges[4999].Time != 4999 {
		t.Error("timestamps not sequential")
	}
}

func TestRMATDeterministic(t *testing.T) {
	cfg := DefaultRMAT(10, 2000, 7)
	a, _ := cfg.Generate()
	b, _ := cfg.Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	cfg2 := cfg
	cfg2.Seed = 8
	c, _ := cfg2.Generate()
	same := 0
	for i := range a {
		if a[i].Src == c[i].Src && a[i].Dst == c[i].Dst {
			same++
		}
	}
	if same > len(a)/10 {
		t.Errorf("different seeds nearly identical: %d/%d", same, len(a))
	}
}

func TestRMATBurstsRaiseMultiplicity(t *testing.T) {
	bursty := DefaultRMAT(12, 50000, 3)
	quiet := bursty
	quiet.BurstFraction = 0
	be, _ := bursty.Generate()
	qe, _ := quiet.Generate()
	bd := distinctCount(be)
	qd := distinctCount(qe)
	if float64(bd) > 0.6*float64(qd) {
		t.Errorf("bursts did not concentrate stream: distinct %d (burst) vs %d (no burst)", bd, qd)
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	cfg := DefaultRMAT(12, 100000, 5)
	edges, _ := cfg.Generate()
	deg := make(map[uint64]int)
	for _, e := range edges {
		deg[e.Src]++
	}
	max, sum := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		sum += d
	}
	mean := float64(sum) / float64(len(deg))
	if float64(max) < 10*mean {
		t.Errorf("max out-volume %d not ≫ mean %.1f; R-MAT should be skewed", max, mean)
	}
}

func TestRMATValidation(t *testing.T) {
	bad := []RMATConfig{
		{Scale: 0, Edges: 10, A: 0.45, B: 0.15, C: 0.15, D: 0.25},
		{Scale: 10, Edges: 0, A: 0.45, B: 0.15, C: 0.15, D: 0.25},
		{Scale: 10, Edges: 10, A: 0.9, B: 0.15, C: 0.15, D: 0.25},
		{Scale: 10, Edges: 10, A: 0.45, B: 0.15, C: 0.15, D: 0.25, Noise: 1.5},
		{Scale: 10, Edges: 10, A: 0.45, B: 0.15, C: 0.15, D: 0.25, BurstFraction: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestDBLPGenerate(t *testing.T) {
	cfg := DBLPConfig{Authors: 500, Papers: 2000, Seed: 42}
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) == 0 {
		t.Fatal("no edges generated")
	}
	lastPaper := int64(-1)
	for _, e := range edges {
		if e.Src >= 500 || e.Dst >= 500 {
			t.Fatalf("author id out of range: %+v", e)
		}
		if e.Src == e.Dst {
			t.Fatalf("self pair: %+v", e)
		}
		if e.Time < lastPaper {
			t.Fatal("papers not chronological")
		}
		lastPaper = e.Time
	}
}

func TestDBLPDeterministic(t *testing.T) {
	cfg := DBLPConfig{Authors: 300, Papers: 500, Seed: 9}
	a, _ := cfg.Generate()
	b, _ := cfg.Generate()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestDBLPRepeatCollaborations(t *testing.T) {
	// Team structure must concentrate the stream: multiplicity well
	// above 1.
	cfg := DBLPConfig{Authors: 500, Papers: 5000, Seed: 1}
	edges, _ := cfg.Generate()
	d := distinctCount(edges)
	if ratio := float64(len(edges)) / float64(d); ratio < 3 {
		t.Errorf("stream multiplicity N/D = %.1f, want ≥ 3 (persistent teams)", ratio)
	}
}

func TestDBLPValidation(t *testing.T) {
	bad := []DBLPConfig{
		{Authors: 1, Papers: 10},
		{Authors: 100, Papers: 0},
		{Authors: 100, Papers: 10, Communities: 1000},
		{Authors: 100, Papers: 10, TeamFraction: 1.5},
		{Authors: 100, Papers: 10, CohesionMin: 0.9, CohesionMax: 0.5},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestIPAttackGenerate(t *testing.T) {
	cfg := DefaultIPAttack(200, 1000, 20000, 42)
	edges, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 20000 {
		t.Fatalf("generated %d packets, want 20000", len(edges))
	}
	lastDay := int64(0)
	days := make(map[int64]int)
	for _, e := range edges {
		if e.Src >= 200 || e.Dst >= 1000 {
			t.Fatalf("ids out of range: %+v", e)
		}
		if e.Time < lastDay {
			t.Fatal("days not monotone")
		}
		lastDay = e.Time
		days[e.Time]++
	}
	if len(days) != 5 {
		t.Errorf("got %d days, want 5", len(days))
	}
}

func TestIPAttackFirstDay(t *testing.T) {
	cfg := DefaultIPAttack(200, 1000, 20000, 42)
	edges, _ := cfg.Generate()
	day1 := FirstDay(edges)
	for _, e := range day1 {
		if e.Time != 0 {
			t.Fatal("first-day sample contains later edges")
		}
	}
	// Five equal days → the prefix is ≈ 20%.
	frac := float64(len(day1)) / float64(len(edges))
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("first-day fraction = %.3f, want ≈ 0.2", frac)
	}
}

func TestIPAttackClassSeparation(t *testing.T) {
	cfg := DefaultIPAttack(1000, 5000, 100000, 42)
	edges, _ := cfg.Generate()
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	// Repeat offenders (ids < 500) should have far higher average edge
	// frequency than scanners.
	var repSum, repN, scanSum, scanN float64
	exact.RangeEdges(func(src, dst uint64, f int64) bool {
		if src < 500 {
			repSum += float64(f)
			repN++
		} else {
			scanSum += float64(f)
			scanN++
		}
		return true
	})
	if repN == 0 || scanN == 0 {
		t.Fatal("one class missing from stream")
	}
	repAvg, scanAvg := repSum/repN, scanSum/scanN
	if repAvg < 4*scanAvg {
		t.Errorf("repeat-offender avg freq %.1f not ≫ scanner avg %.1f", repAvg, scanAvg)
	}
}

func TestIPAttackValidation(t *testing.T) {
	bad := []IPAttackConfig{
		{Attackers: 0, Targets: 10, Packets: 10},
		{Attackers: 10, Targets: 0, Packets: 10},
		{Attackers: 10, Targets: 10, Packets: 0},
		{Attackers: 10, Targets: 10, Packets: 10, RepeaterFraction: 2},
		{Attackers: 10, Targets: 10, Packets: 10, ScannerPoolMin: 5, ScannerPoolMax: 2},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func distinctCount(edges []stream.Edge) int {
	seen := make(map[[2]uint64]struct{}, len(edges))
	for _, e := range edges {
		seen[[2]uint64{e.Src, e.Dst}] = struct{}{}
	}
	return len(seen)
}
