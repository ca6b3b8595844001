package tenant

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/stream"
)

func testStream(n int, seed uint64) []stream.Edge {
	rng := hashutil.NewRNG(seed)
	edges := make([]stream.Edge, n)
	for i := range edges {
		edges[i] = stream.Edge{
			Src:    rng.Uint64() % 500,
			Dst:    rng.Uint64() % 1500,
			Weight: int64(rng.Uint64()%4) + 1,
			Time:   int64(i),
		}
	}
	return edges
}

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:    t.TempDir(),
		Sketch: gsketch.Config{TotalBytes: 32 << 10, Seed: 7},
	}
}

func newTestRegistry(t *testing.T, cfg Config) *Registry {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

func mustCreate(t *testing.T, r *Registry, name string, ov Overrides) *Handle {
	t.Helper()
	if _, err := r.Create(name, ov); err != nil {
		t.Fatal(err)
	}
	h, err := r.Tenant(name)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func ingestAll(t *testing.T, h *Handle, edges []stream.Edge) {
	t.Helper()
	for lo := 0; lo < len(edges); {
		n, err := h.TryIngest(edges[lo:])
		lo += n
		if err != nil && !errors.Is(err, gsketch.ErrIngestQueueFull) {
			t.Fatalf("ingest: %v", err)
		}
		if n == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func queries(edges []stream.Edge) []core.EdgeQuery {
	qs := make([]core.EdgeQuery, 0, 64)
	for i := 0; i < len(edges) && i < 64; i++ {
		qs = append(qs, core.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	return qs
}

// TestTenantEquivalence is the isolation contract: two tenants ingesting
// disjoint streams must answer exactly like two standalone engines built
// from the same configuration — no cross-tenant bleed, no shared state.
func TestTenantEquivalence(t *testing.T) {
	cfg := testConfig(t)
	r := newTestRegistry(t, cfg)
	streams := map[string][]stream.Edge{
		"alpha": testStream(4000, 11),
		"beta":  testStream(4000, 22),
	}
	for name, edges := range streams {
		ingestAll(t, mustCreate(t, r, name, Overrides{}), edges)
	}
	for name, edges := range streams {
		h, err := r.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		qs := queries(edges)
		got, err := h.QueryBatch(qs)
		if err != nil {
			t.Fatal(err)
		}

		eng, err := gsketch.Open(cfg.Sketch, gsketch.WithGlobal())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.TryIngest(edges); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := eng.Drain(ctx); err != nil {
			t.Fatal(err)
		}
		cancel()
		want := eng.QueryBatch(qs)
		eng.Close()

		for i := range qs {
			if got[i].Estimate != want[i].Estimate {
				t.Fatalf("tenant %s query %d: estimate %d, standalone %d",
					name, i, got[i].Estimate, want[i].Estimate)
			}
		}
	}
}

// TestQuotaAcceptedPrefix drives the token bucket with a fake clock: a
// burst-sized prefix is accepted, the rest is cut with ErrRateLimited,
// and elapsed time refills tokens at the configured rate.
func TestQuotaAcceptedPrefix(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig(t)
	cfg.Now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)
	h := mustCreate(t, r, "limited", Overrides{MaxEdgesPerSec: 100, Burst: 10})

	edges := testStream(25, 3)
	accepted, err := h.TryIngest(edges)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-burst ingest: err %v, want ErrRateLimited", err)
	}
	if accepted != 10 {
		t.Fatalf("over-burst ingest: accepted %d, want burst 10", accepted)
	}

	// Empty bucket: nothing is accepted until time passes.
	accepted, err = h.TryIngest(edges[10:])
	if !errors.Is(err, ErrRateLimited) || accepted != 0 {
		t.Fatalf("drained bucket: accepted %d err %v, want 0 + ErrRateLimited", accepted, err)
	}

	// 50ms at 100 edges/s refills 5 tokens.
	now = now.Add(50 * time.Millisecond)
	accepted, err = h.TryIngest(edges[10:])
	if !errors.Is(err, ErrRateLimited) || accepted != 5 {
		t.Fatalf("after refill: accepted %d err %v, want 5 + ErrRateLimited", accepted, err)
	}

	// A batch inside the refilled budget passes cleanly.
	now = now.Add(time.Second)
	if accepted, err = h.TryIngest(edges[15:25]); err != nil || accepted != 10 {
		t.Fatalf("within budget: accepted %d err %v, want 10 + nil", accepted, err)
	}

	info, err := r.Get("limited")
	if err != nil {
		t.Fatal(err)
	}
	if info.RateLimited != 3 {
		t.Fatalf("rate-limited count %d, want 3", info.RateLimited)
	}
}

// TestSubUnitRateIngests: a rate below one edge a second with no burst set
// defaults the bucket to one edge, not to the rate's floor of zero, which
// clamped the bucket empty and refused every edge. Ten seconds between
// calls refill the one token each time. Each call drains before the next,
// so the ingest queue's capacity never enters the result.
func TestSubUnitRateIngests(t *testing.T) {
	now := time.Unix(1000, 0)
	cfg := testConfig(t)
	cfg.Now = func() time.Time { return now }
	r := newTestRegistry(t, cfg)
	h := mustCreate(t, r, "slow", Overrides{MaxEdgesPerSec: 0.5})

	edges := testStream(10, 9)
	for i := range edges {
		now = now.Add(10 * time.Second)
		if n, err := h.TryIngest(edges[i : i+1]); n != 1 || err != nil {
			t.Fatalf("call %d: TryIngest = (%d, %v), want (1, nil)", i, n, err)
		}
		if err := h.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHugeRateOverrides pins the token bucket at the top of its range: a
// rate or burst at or past 2^63 has no int conversion, and converting one
// made the grant negative and both ingest paths panic on edges[:grant].
// Each such tenant must take whole batches, through TryIngest and Admit,
// and stay deletable (a panic there leaked the tenant's read lock).
func TestHugeRateOverrides(t *testing.T) {
	edges := testStream(64, 5)
	for _, tc := range []struct {
		name string
		ov   Overrides
	}{
		{"rate 1e19", Overrides{MaxEdgesPerSec: 1e19}},
		{"burst MaxInt64", Overrides{MaxEdgesPerSec: 1, Burst: math.MaxInt64}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newTestRegistry(t, testConfig(t))
			h := mustCreate(t, r, "huge", tc.ov)
			if n, err := h.TryIngest(edges[:32]); n != 32 || err != nil {
				t.Fatalf("TryIngest = (%d, %v), want (32, nil)", n, err)
			}
			n, adm, err := h.Admit(edges[32:])
			if n != 32 || err != nil {
				t.Fatalf("Admit = (%d, %v), want (32, nil)", n, err)
			}
			adm.Apply()
			if err := h.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			if err := r.Delete("huge"); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNonFiniteQuotaRefused: a NaN or infinite registry-wide rate (a
// command-line flag parses both) is refused when the registry opens.
func TestNonFiniteQuotaRefused(t *testing.T) {
	for _, q := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := testConfig(t)
		cfg.Quotas.MaxEdgesPerSec = q
		if r, err := New(cfg); err == nil {
			r.Close()
			t.Fatalf("New with Quotas.MaxEdgesPerSec %v succeeded", q)
		}
	}
}

// TestEvictReopenRoundTrip pins the LRU lifecycle contract: a tenant
// evicted under the resident cap answers byte-identically after its
// transparent snapshot-reopen, and the lifecycle counters advance.
func TestEvictReopenRoundTrip(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxResident = 1
	r := newTestRegistry(t, cfg)

	edgesA := testStream(4000, 5)
	ha := mustCreate(t, r, "a", Overrides{})
	ingestAll(t, ha, edgesA)
	qs := queries(edgesA)
	before, err := ha.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}

	// Touching b forces a's eviction (cap 1): snapshot written, engine gone.
	hb := mustCreate(t, r, "b", Overrides{})
	ingestAll(t, hb, testStream(100, 6))
	if st := r.RegistryStats(); st.Resident != 1 || st.Evictions == 0 {
		t.Fatalf("after touching b: %+v, want 1 resident and >0 evictions", st)
	}
	if _, err := os.Stat(r.SnapshotFile("a")); err != nil {
		t.Fatalf("evicted tenant's snapshot: %v", err)
	}
	infoA, err := r.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if infoA.Resident {
		t.Fatal("tenant a still resident after eviction")
	}

	// First access after eviction reopens from snapshot, transparently.
	after, err := ha.QueryBatch(qs)
	if err != nil {
		t.Fatalf("query after eviction: %v", err)
	}
	for i := range qs {
		if after[i].Estimate != before[i].Estimate {
			t.Fatalf("query %d: estimate %d after reopen, %d before eviction",
				i, after[i].Estimate, before[i].Estimate)
		}
	}
	if st := r.RegistryStats(); st.Reopens == 0 {
		t.Fatalf("stats %+v, want >0 reopens", st)
	}
}

// TestManifestPersistence restarts the registry over the same directory:
// the tenant set, per-tenant overrides, and sketch state must all come
// back (cold, until first access).
func TestManifestPersistence(t *testing.T) {
	cfg := testConfig(t)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	edges := testStream(2000, 9)
	ov := Overrides{MaxEdgesPerSec: -1, Burst: 500, SketchBytes: 16 << 10}
	ingestAll(t, mustCreate(t, r, "keeper", ov), edges)
	h, _ := r.Tenant("keeper")
	qs := queries(edges)
	before, err := h.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := newTestRegistry(t, cfg)
	info, err := r2.Get("keeper")
	if err != nil {
		t.Fatal(err)
	}
	if info.Resident {
		t.Fatal("tenant resident right after restart")
	}
	if info.Overrides != ov {
		t.Fatalf("overrides after restart: %+v, want %+v", info.Overrides, ov)
	}
	h2, err := r2.Tenant("keeper")
	if err != nil {
		t.Fatal(err)
	}
	after, err := h2.QueryBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if after[i].Estimate != before[i].Estimate {
			t.Fatalf("query %d: estimate %d after restart, %d before", i, after[i].Estimate, before[i].Estimate)
		}
	}
}

// TestDeleteRemovesStateAndInvalidatesHandles checks delete semantics:
// the directory is gone, live handles fail with ErrNotFound, and the
// surviving tenant is untouched.
func TestDeleteRemovesStateAndInvalidatesHandles(t *testing.T) {
	r := newTestRegistry(t, testConfig(t))
	edges := testStream(500, 14)
	doomed := mustCreate(t, r, "doomed", Overrides{})
	ingestAll(t, doomed, edges)
	survivor := mustCreate(t, r, "survivor", Overrides{})
	ingestAll(t, survivor, edges)

	if err := r.Delete("doomed"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(r.cfg.Dir, "doomed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("deleted tenant's directory: %v, want ErrNotExist", err)
	}
	if _, err := doomed.TryIngest(edges[:1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ingest through stale handle: %v, want ErrNotFound", err)
	}
	if _, err := doomed.QueryBatch(queries(edges)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("query through stale handle: %v, want ErrNotFound", err)
	}
	if err := r.Delete("doomed"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
	if _, err := survivor.QueryBatch(queries(edges)); err != nil {
		t.Fatalf("survivor query: %v", err)
	}
}

// TestCreateValidation rejects path- and label-hostile names and keeps
// create idempotent (override updates, no duplicate state).
func TestCreateValidation(t *testing.T) {
	r := newTestRegistry(t, testConfig(t))
	for _, bad := range []string{"", "a/b", "../up", "x y", "ünïcode", string(make([]byte, 65))} {
		if _, err := r.Create(bad, Overrides{}); !errors.Is(err, ErrBadName) {
			t.Fatalf("Create(%q): %v, want ErrBadName", bad, err)
		}
	}
	created, err := r.Create("dup", Overrides{})
	if err != nil || !created {
		t.Fatalf("first create: %v created=%v", err, created)
	}
	created, err = r.Create("dup", Overrides{MaxEdgesPerSec: 9})
	if err != nil || created {
		t.Fatalf("re-create: %v created=%v, want idempotent update", err, created)
	}
	info, err := r.Get("dup")
	if err != nil {
		t.Fatal(err)
	}
	if info.Overrides.MaxEdgesPerSec != 9 {
		t.Fatalf("re-create did not update overrides: %+v", info.Overrides)
	}
	if _, err := r.Tenant("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Tenant(missing): %v, want ErrNotFound", err)
	}
}

// TestOverridesBounded: sketch_bytes and queue_depth outside [0, the
// registry's own budget] fail Create with ErrBadOverrides — for a new tenant
// and as an update — and leave the manifest and the tenant's overrides as
// they were; the bounds themselves are accepted. A manifest already holding
// an out-of-range override fails that tenant's open with the same error
// instead of allocating it.
func TestOverridesBounded(t *testing.T) {
	cfg := testConfig(t)
	cfg.Ingest = gsketch.IngestConfig{Workers: 2, QueueDepth: 8}
	budget := cfg.Sketch.TotalBytes
	r := newTestRegistry(t, cfg)
	mustCreate(t, r, "held", Overrides{SketchBytes: budget / 2, QueueDepth: 4})
	manifest := func() string {
		data, err := os.ReadFile(r.manifestPath())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, tc := range []struct {
		name string
		ov   Overrides
		ok   bool
	}{
		{"zero inherits", Overrides{}, true},
		{"sketch at budget", Overrides{SketchBytes: budget}, true},
		{"queue at resolved depth", Overrides{QueueDepth: 8}, true},
		{"sketch negative", Overrides{SketchBytes: -1}, false},
		{"sketch over budget", Overrides{SketchBytes: budget + 1}, false},
		{"sketch 1 TiB", Overrides{SketchBytes: 1 << 40}, false},
		{"queue negative", Overrides{QueueDepth: -1}, false},
		{"queue over resolved depth", Overrides{QueueDepth: 9}, false},
		{"queue 2^40", Overrides{QueueDepth: 1 << 40}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, name := range []string{"fresh", "held"} {
				before := manifest()
				prev, _ := r.Get(name)
				_, err := r.Create(name, tc.ov)
				if tc.ok {
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					continue
				}
				if !errors.Is(err, ErrBadOverrides) {
					t.Fatalf("%s: Create(%+v) = %v, want ErrBadOverrides", name, tc.ov, err)
				}
				if manifest() != before {
					t.Fatalf("%s: a refused Create rewrote the manifest", name)
				}
				if now, _ := r.Get(name); now.Overrides != prev.Overrides {
					t.Fatalf("%s: overrides %+v after a refused Create, want %+v", name, now.Overrides, prev.Overrides)
				}
			}
			if tc.ok {
				if err := r.Delete("fresh"); err != nil {
					t.Fatal(err)
				}
				if _, err := r.Create("held", Overrides{SketchBytes: budget / 2, QueueDepth: 4}); err != nil {
					t.Fatal(err)
				}
			}
		})
	}

	// A manifest written before the bound existed.
	dir := t.TempDir()
	forged := `{"schema":1,"tenants":{"big":{"sketch_bytes":1099511627776},"deep":{"queue_depth":1099511627776},"fine":{}}}`
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Dir = dir
	r2 := newTestRegistry(t, cfg)
	edges := testStream(100, 3)
	for _, name := range []string{"big", "deep"} {
		h, err := r2.Tenant(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.TryIngest(edges); !errors.Is(err, ErrBadOverrides) {
			t.Fatalf("%s: first ingest = %v, want ErrBadOverrides", name, err)
		}
	}
	h, err := r2.Tenant("fine")
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, h, edges)
}
