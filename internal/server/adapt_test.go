package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

func newTestChain(t *testing.T, sample []stream.Edge) *adapt.Chain {
	t.Helper()
	return adapt.NewChain(buildTestGSketch(t, sample), adapt.ChainConfig{SampleSize: 2048, Seed: 7})
}

// The full loop over HTTP: ingest, shifted queries recorded into the
// workload reservoir, POST /repartition hot-swapping a second generation,
// sound answers over the whole stream afterwards, and snapshot → restore
// with the chain intact.
func TestRepartitionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	edges := testStream(20000, 51)
	srv, ts := newTestServer(t, Config{
		Engine: testEngine(t, newTestChain(t, edges[:1500]),
			gsketch.WithSnapshotFile(filepath.Join(dir, "chain.gsk"))),
	})

	ingestAll(t, ts.URL, edges[:10000])

	// Shifted live workload: query sources the partitioning sample never
	// saw, so the recorder sample diverges from the (empty) baseline.
	var qs []core.EdgeQuery
	for _, e := range edges[10000:10200] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	before := queryBatch(t, ts.URL, qs)

	resp, err := http.Post(ts.URL+"/repartition", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repartition: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"generations":2`)) {
		t.Fatalf("repartition reply: %s", body)
	}

	// Stream the rest through the new head; answers must cover the WHOLE
	// stream (CountMin never underestimates, and the chain sums
	// generations), with bounds and confidence attached.
	ingestAll(t, ts.URL, edges[10000:])
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	after := queryBatch(t, ts.URL, qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if after[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): post-swap estimate %d < truth %d", q.Src, q.Dst, after[i].Estimate, truth)
		}
		if after[i].Estimate < before[i].Estimate {
			t.Fatalf("edge (%d,%d): estimate shrank across swap: %d -> %d",
				q.Src, q.Dst, before[i].Estimate, after[i].Estimate)
		}
		if after[i].ErrorBound <= 0 || after[i].Confidence <= 0 {
			t.Fatalf("edge (%d,%d): missing combined guarantee: %+v", q.Src, q.Dst, after[i])
		}
	}

	// Stats carry the adaptive gauges.
	st := getStats(t, ts.URL)
	if st["generations"].(float64) != 2 {
		t.Fatalf("stats generations = %v, want 2", st["generations"])
	}
	if st["repartitions"].(float64) != 1 {
		t.Fatalf("stats repartitions = %v, want 1", st["repartitions"])
	}
	for _, k := range []string{"drift_workload_divergence", "drift_outlier_share",
		"route_read_outlier_share", "route_write_outlier_share"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, st)
		}
	}

	// Snapshot the chain, restore it, and check the generations and the
	// answers survive.
	resp, err = http.Post(ts.URL+"/snapshot/save", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot save: status %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/snapshot/restore", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot restore: status %d: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"generations":2`)) {
		t.Fatalf("restore reply: %s", body)
	}
	restored := queryBatch(t, ts.URL, qs)
	for i := range qs {
		if restored[i].Estimate != after[i].Estimate {
			t.Fatalf("query %d: restored estimate %d != live %d", i, restored[i].Estimate, after[i].Estimate)
		}
	}
	_ = srv
}

// A drift past the threshold triggers a rebuild without any POST: the
// auto-trigger loop closes the record → rebuild → swap loop by itself.
func TestAutoRepartitionOnDrift(t *testing.T) {
	edges := testStream(20000, 53)
	chain := newTestChain(t, edges[:1500])
	_, ts := newTestServer(t, Config{Engine: testEngine(t, chain,
		gsketch.WithAdaptive(chain.Config(), adapt.ManagerConfig{
			MinWorkload: 32,
			MinData:     64,
		}),
		gsketch.WithAutoRepartition(5*time.Millisecond, nil))})

	ingestAll(t, ts.URL, edges[:10000])
	// All-new query sources: baseline is empty, so divergence is maximal
	// once the recorder holds MinWorkload queries.
	var qs []core.EdgeQuery
	for i := 0; i < 64; i++ {
		qs = append(qs, core.EdgeQuery{Src: uint64(1 << 40), Dst: uint64(i)})
	}
	queryBatch(t, ts.URL, qs)

	waitFor(t, "auto repartition", func() bool {
		st := getStats(t, ts.URL)
		v, ok := st["repartitions"].(float64)
		return ok && v >= 1
	})
}

// A non-adaptive server serves a multi-generation snapshot: its engine
// serves a chain like any other, so the restore answers 200 and the
// generations answer what the chain that wrote them answers. Without
// WithAdaptive it still has nothing to repartition.
func TestNonAdaptiveServerServesChainSnapshot(t *testing.T) {
	edges := testStream(8000, 57)
	chain := newTestChain(t, edges[:1000])
	core.Populate(chain, edges[:4000])
	if _, err := adapt.Repartition(chain, testSketchConfig(), nil); err != nil {
		t.Fatal(err)
	}
	core.Populate(chain, edges[4000:])
	var snap bytes.Buffer
	if _, err := chain.WriteTo(&snap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "chain.gsk")
	if err := os.WriteFile(path, snap.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{
		Engine: testEngine(t, buildTestGSketch(t, edges[:1000]), gsketch.WithSnapshotFile(path)),
	})
	resp, err := http.Post(ts.URL+"/snapshot/restore", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"generations":2`)) {
		t.Fatalf("restore reply %s, want 2 generations", body)
	}
	qs := make([]core.EdgeQuery, 300)
	for i := range qs {
		qs[i] = core.EdgeQuery{Src: edges[i*25].Src, Dst: edges[i*25].Dst}
	}
	want := chain.EstimateBatch(qs)
	for i, got := range queryBatch(t, ts.URL, qs) {
		if got.Estimate != want[i].Estimate || got.ErrorBound != want[i].ErrorBound || got.StreamTotal != want[i].StreamTotal {
			t.Fatalf("query %d: served (%d, %v, %d), chain (%d, %v, %d)", i,
				got.Estimate, got.ErrorBound, got.StreamTotal, want[i].Estimate, want[i].ErrorBound, want[i].StreamTotal)
		}
	}

	// POST /repartition is not mounted without a chain.
	resp, err = http.Post(ts.URL+"/repartition", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("repartition on non-adaptive server: status %d, want 404", resp.StatusCode)
	}
}

// POST /compact over HTTP: pivot twice, fold the two frozen generations
// into one, keep answering soundly, then snapshot → restore with the
// compacted chain (and its lifecycle gauges) intact.
func TestCompactEndpointEndToEnd(t *testing.T) {
	dir := t.TempDir()
	edges := testStream(24000, 63)
	// The reservoir holds every segment's whole slice (SampleSize ≥ 8000),
	// so a layout-incompatible fold re-ingests losslessly and the ≥truth
	// assertions below stay valid.
	chain := adapt.NewChain(buildTestGSketch(t, edges[:1500]), adapt.ChainConfig{SampleSize: 16384, Seed: 7})
	_, ts := newTestServer(t, Config{
		Engine: testEngine(t, chain, gsketch.WithSnapshotFile(filepath.Join(dir, "chain.gsk"))),
	})

	// Two pivots → three generations (two frozen, one live head).
	ingestAll(t, ts.URL, edges[:8000])
	postOK := func(path string) []byte {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return body
	}
	postOK("/repartition")
	ingestAll(t, ts.URL, edges[8000:16000])
	postOK("/repartition")
	ingestAll(t, ts.URL, edges[16000:])

	// Restored at its cap, three generations of three layouts cannot fold:
	// /repartition refuses as the cap does.
	resp, err := http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	capped, err := gsketch.Open(testSketchConfig(), gsketch.WithRestore(bytes.NewReader(snap)),
		gsketch.WithAdaptive(adapt.ChainConfig{MaxGenerations: 3}, adapt.ManagerConfig{}),
		gsketch.WithCompaction(gsketch.CompactionPolicy{MaxGenerations: 1, Interval: time.Hour}, nil))
	if err != nil {
		t.Fatal(err)
	}
	_, cappedTS := newTestServer(t, Config{Engine: capped})
	resp, err = http.Post(cappedTS.URL+"/repartition", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var refusal struct {
		Code string `json:"code"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&refusal)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || refusal.Code != "max_generations" {
		t.Fatalf("repartition on a restored chain at its cap: %d %q, want 409 max_generations", resp.StatusCode, refusal.Code)
	}

	var qs []core.EdgeQuery
	for _, e := range edges[:300] {
		qs = append(qs, core.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}

	body := postOK("/compact")
	var res struct {
		Folded      int `json:"folded"`
		Generations int `json:"generations"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("compact reply %q: %v", body, err)
	}
	if res.Folded != 2 || res.Generations != 2 {
		t.Fatalf("compact reply %s, want 2 folded into 2 generations", body)
	}

	// Answers must still cover the whole stream after the fold. (They may
	// drop relative to the pre-compaction gather: a re-ingest rebuild can
	// shed collision overcount — only exact merges never shrink.)
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	after := queryBatch(t, ts.URL, qs)
	for i, q := range qs {
		truth := exact.EdgeFrequency(q.Src, q.Dst)
		if after[i].Estimate < truth {
			t.Fatalf("edge (%d,%d): post-compaction estimate %d < truth %d", q.Src, q.Dst, after[i].Estimate, truth)
		}
	}

	// The lifecycle gauges land in /stats.
	st := getStats(t, ts.URL)
	if st["generations"].(float64) != 2 || st["compactions"].(float64) != 1 {
		t.Fatalf("stats generations=%v compactions=%v, want 2 and 1", st["generations"], st["compactions"])
	}
	if st["compacted_from"].(float64) != 3 {
		t.Fatalf("stats compacted_from = %v, want 3", st["compacted_from"])
	}
	for _, k := range []string{"resident_generations", "tiered_generations", "tiered_bytes"} {
		if _, ok := st[k]; !ok {
			t.Fatalf("stats missing %q: %v", k, st)
		}
	}

	// A single frozen generation left: compacting again is a clean no-op.
	var again struct {
		Folded int `json:"folded"`
	}
	if err := json.Unmarshal(postOK("/compact"), &again); err != nil || again.Folded != 0 {
		t.Fatalf("idle compact: folded=%d err=%v, want 0-fold success", again.Folded, err)
	}

	// Snapshot → restore keeps the compacted chain and its answers.
	postOK("/snapshot/save")
	if body := postOK("/snapshot/restore"); !bytes.Contains(body, []byte(`"generations":2`)) {
		t.Fatalf("restore reply: %s", body)
	}
	restored := queryBatch(t, ts.URL, qs)
	for i := range qs {
		if restored[i].Estimate != after[i].Estimate {
			t.Fatalf("query %d: restored estimate %d != live %d", i, restored[i].Estimate, after[i].Estimate)
		}
	}

	// A non-adaptive server does not mount the route at all.
	_, plainTS := newTestServer(t, Config{Engine: testEngine(t, buildTestGSketch(t, edges[:500]))})
	resp, err = http.Post(plainTS.URL+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("compact on non-adaptive server: status %d, want 404", resp.StatusCode)
	}
}

// Shutdown must stop the adapt auto-trigger goroutine before the final
// snapshot (the engine's Close ordering), so a rebuild can never race the
// save. Run under -race in CI: the auto loop ticks aggressively, manual
// repartitions and ingest stay in flight, and the shutdown snapshot must
// come out a loadable, consistent chain.
func TestShutdownDuringAutoRepartition(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "final-chain.gsk")
	edges := testStream(20000, 59)
	chain := newTestChain(t, edges[:1500])
	srv, ts := newTestServer(t, Config{
		Engine: testEngine(t, chain,
			gsketch.WithSnapshotFile(snap),
			gsketch.WithAdaptive(chain.Config(), adapt.ManagerConfig{
				DriftThreshold: 0.01,
				MinWorkload:    8,
				MinData:        8,
			}),
			gsketch.WithAutoRepartition(time.Millisecond, nil),
			gsketch.WithSnapshotOnClose()),
	})

	ingestAll(t, ts.URL, edges[:5000])
	var qs []core.EdgeQuery
	for i := 0; i < 64; i++ {
		qs = append(qs, core.EdgeQuery{Src: uint64(1 << 41), Dst: uint64(i)})
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() { // keep drift high and swaps firing while shutdown lands
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			queryBatch(t, ts.URL, qs)
			postIngest(t, ts.URL, edges[5000+(i*100)%10000:5000+(i*100)%10000+100], false)
			resp, err := http.Post(ts.URL+"/repartition", "application/json", nil)
			if err == nil {
				resp.Body.Close()
			}
		}
	}()

	time.Sleep(15 * time.Millisecond) // let the auto loop overlap the traffic
	if err := srv.Close(); err != nil {
		t.Fatalf("shutdown during auto repartition: %v", err)
	}
	close(stop)
	<-done

	f, err := os.Open(snap)
	if err != nil {
		t.Fatalf("final snapshot missing: %v", err)
	}
	defer f.Close()
	gens, _, err := core.ReadChainMeta(f)
	if err != nil {
		t.Fatalf("final snapshot unreadable: %v", err)
	}
	if len(gens) < 1 {
		t.Fatalf("final snapshot carries no generations")
	}
}
