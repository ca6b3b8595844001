package adapt

import (
	"errors"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// sliceWorkload is a Workload over a sample the test swaps.
type sliceWorkload struct{ edges []stream.Edge }

func (w *sliceWorkload) Sample() []stream.Edge { return slices.Clone(w.edges) }

func (w *sliceWorkload) SourceShares(dist map[uint64]float64) int {
	addSources(dist, w.edges)
	return len(w.edges)
}

// workloadOf builds a query-workload sample concentrated on the given
// source vertices.
func workloadOf(srcs ...uint64) []stream.Edge {
	var out []stream.Edge
	for i := 0; i < 100; i++ {
		s := srcs[i%len(srcs)]
		out = append(out, stream.Edge{Src: s, Dst: uint64(i % 7), Weight: 1})
	}
	return out
}

func TestDivergence(t *testing.T) {
	same := workloadOf(1, 2, 3)
	if d := divergence(sourceDistribution(same), sourceDistribution(same)); d != 0 {
		t.Fatalf("identical distributions diverge: %v", d)
	}
	disjoint := divergence(sourceDistribution(workloadOf(1, 2)), sourceDistribution(workloadOf(8, 9)))
	if disjoint != 1 {
		t.Fatalf("disjoint distributions: divergence %v, want 1", disjoint)
	}
	// Half the mass moved: TV distance 0.5.
	half := divergence(sourceDistribution(workloadOf(1, 2)), sourceDistribution(workloadOf(1, 9)))
	if half < 0.49 || half > 0.51 {
		t.Fatalf("half-moved distributions: divergence %v, want ~0.5", half)
	}
	if d := divergence(nil, sourceDistribution(same)); d != 1 {
		t.Fatalf("nil baseline vs live: %v, want 1 (no workload knowledge)", d)
	}
	if d := divergence(nil, nil); d != 0 {
		t.Fatalf("nil vs nil: %v, want 0", d)
	}
}

func TestManagerDriftAndThresholds(t *testing.T) {
	edges := testStream(8000, 41)
	chain := NewChain(buildSketch(t, edges[:1000], 3), ChainConfig{SampleSize: 1024})
	chain.UpdateBatch(edges)

	baseline := workloadOf(1, 2, 3, 4)
	live := &sliceWorkload{baseline}
	m := NewManager(chain, live, ManagerConfig{
		Sketch:      core.Config{TotalBytes: 32 << 10, Seed: 5},
		Baseline:    baseline,
		MinWorkload: 10,
		MinData:     10,
	})

	d := m.Drift()
	if d.WorkloadDivergence != 0 {
		t.Fatalf("no shift yet: divergence %v", d.WorkloadDivergence)
	}
	if m.ShouldRepartition(d) {
		t.Fatal("ShouldRepartition true with zero drift")
	}

	// Shift the live workload wholesale: divergence 1 crosses the default
	// 0.5 threshold.
	live.edges = workloadOf(200, 201, 202)
	d = m.Drift()
	if d.WorkloadDivergence != 1 {
		t.Fatalf("disjoint live workload: divergence %v, want 1", d.WorkloadDivergence)
	}
	if !m.ShouldRepartition(d) {
		t.Fatal("ShouldRepartition false after full workload shift")
	}

	res, err := m.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("Check did not repartition despite drift")
	}
	if res.Generations != 2 || chain.Generations() != 2 {
		t.Fatalf("generations = %d/%d, want 2", res.Generations, chain.Generations())
	}
	if m.Repartitions() != 1 {
		t.Fatalf("repartitions = %d, want 1", m.Repartitions())
	}

	// The live workload became the new baseline: drift is back to zero and
	// Check is idle again (data reservoir also reset below MinData).
	d = m.Drift()
	if d.WorkloadDivergence != 0 {
		t.Fatalf("post-swap divergence %v, want 0", d.WorkloadDivergence)
	}
	if res, err := m.Check(); err != nil || res != nil {
		t.Fatalf("idle Check = (%v, %v), want (nil, nil)", res, err)
	}
}

func TestManagerOutlierShareSignal(t *testing.T) {
	// Partitioning sample covers sources 0..9 only; queries against unknown
	// sources are answered by the outlier sketch.
	var sample []stream.Edge
	for i := uint64(0); i < 10; i++ {
		for j := 0; j < 20; j++ {
			sample = append(sample, stream.Edge{Src: i, Dst: uint64(j), Weight: 1})
		}
	}
	chain := NewChain(buildSketch(t, sample, 7), ChainConfig{})
	chain.UpdateBatch(sample)

	m := NewManager(chain, nil, ManagerConfig{
		Sketch:  core.Config{TotalBytes: 32 << 10, Seed: 5},
		MinData: 10,
	})
	if d := m.Drift(); d.OutlierShare != 0 {
		t.Fatalf("outlier share before any query: %v", d.OutlierShare)
	}

	var qs []core.EdgeQuery
	for i := 0; i < 100; i++ {
		qs = append(qs, core.EdgeQuery{Src: uint64(1000 + i), Dst: 1}) // all unknown
	}
	chain.EstimateBatch(qs)
	if d := m.Drift(); d.OutlierShare != 1 {
		t.Fatalf("all-outlier query traffic: share %v, want 1", d.OutlierShare)
	}

	// Mixed traffic: half known, half unknown.
	qs = qs[:0]
	for i := 0; i < 100; i++ {
		src := uint64(i % 10)
		if i%2 == 0 {
			src = uint64(2000 + i)
		}
		qs = append(qs, core.EdgeQuery{Src: src, Dst: 1})
	}
	before := m.Drift().OutlierShare
	chain.EstimateBatch(qs)
	after := m.Drift().OutlierShare
	if after >= before {
		t.Fatalf("outlier share did not fall with mixed traffic: %v -> %v", before, after)
	}
}

func TestManagerRepartitionNeedsData(t *testing.T) {
	edges := testStream(500, 43)
	chain := NewChain(buildSketch(t, edges[:200], 3), ChainConfig{})
	m := NewManager(chain, nil, ManagerConfig{Sketch: core.Config{TotalBytes: 16 << 10, Seed: 2}})
	if _, err := m.Repartition(); !errors.Is(err, ErrEmptyReservoir) {
		t.Fatalf("repartition with an empty reservoir: err = %v, want ErrEmptyReservoir", err)
	}
	chain.UpdateBatch(edges)
	res, err := m.Repartition()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions < 1 || res.Generations != 2 {
		t.Fatalf("unexpected result %+v", res)
	}
	if res.BuildDuration <= 0 {
		t.Fatalf("build duration not measured: %v", res.BuildDuration)
	}
}
