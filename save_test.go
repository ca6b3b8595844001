package gsketch_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	gsketch "github.com/graphstream/gsketch"
)

// buildPopulated returns an engine over a populated gSketch plus the stream
// that fed it.
func buildPopulated(t *testing.T) (*gsketch.Engine, []gsketch.Edge) {
	t.Helper()
	edges := synthetic(20_000)
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 64 << 10, Seed: 7}, gsketch.WithSample(edges[:2000]))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	return eng, edges
}

// TestSaveLoadRoundTripThroughFacade is the round-trip check: Save an
// engine, Open another from the bytes, and require QueryBatch to answer
// byte-identically — estimates, partitions, bounds, confidences and stream
// totals all equal.
func TestSaveLoadRoundTripThroughFacade(t *testing.T) {
	eng, edges := buildPopulated(t)

	var buf bytes.Buffer
	n, err := eng.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}

	restored, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()

	qs := make([]gsketch.EdgeQuery, 0, 1000)
	for i := 0; i < 1000; i++ {
		qs = append(qs, gsketch.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	// One absent edge so the outlier path round-trips too.
	qs = append(qs, gsketch.EdgeQuery{Src: 1 << 60, Dst: 2})

	want := eng.QueryBatch(qs)
	got := restored.QueryBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v != live %+v", i, got[i], want[i])
		}
	}

	// A second Save of the restored engine must reproduce the same bytes —
	// the serialization is canonical.
	var buf2 bytes.Buffer
	if _, err := restored.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("save → load → save is not byte-stable")
	}
}

// TestChainRoundTripThroughFacade drives the adaptive public API: open an
// adaptive engine, repartition mid-stream, save the whole chain, and reopen
// it with identical answers — including restoring a plain single-sketch
// snapshot as a one-generation chain.
func TestChainRoundTripThroughFacade(t *testing.T) {
	ctx := context.Background()
	edges := synthetic(20_000)
	cc := gsketch.ChainConfig{SampleSize: 1024, Seed: 3}
	adaptive := gsketch.WithAdaptive(cc, gsketch.AdaptConfig{Sketch: gsketch.Config{TotalBytes: 64 << 10, Seed: 8}})
	eng, err := gsketch.Open(gsketch.Config{TotalBytes: 64 << 10, Seed: 7},
		gsketch.WithSample(edges[:2000]), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(ctx, edges[:10_000]...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Repartition(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest(ctx, edges[10_000:]...); err != nil {
		t.Fatal(err)
	}
	if eng.Generations() != 2 {
		t.Fatalf("generations = %d, want 2", eng.Generations())
	}

	var buf bytes.Buffer
	if _, err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(bytes.NewReader(buf.Bytes())), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Generations() != 2 {
		t.Fatalf("restored generations = %d, want 2", restored.Generations())
	}
	qs := make([]gsketch.EdgeQuery, 0, 500)
	for i := 0; i < 500; i++ {
		qs = append(qs, gsketch.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst})
	}
	want := eng.QueryBatch(qs)
	got := restored.QueryBatch(qs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v != live %+v", i, got[i], want[i])
		}
	}

	// A single-sketch engine's snapshot restores as a one-generation chain.
	plain, _ := buildPopulated(t)
	var single bytes.Buffer
	if _, err := plain.Save(&single); err != nil {
		t.Fatal(err)
	}
	chained, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(&single), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	defer chained.Close()
	if chained.Generations() != 1 {
		t.Fatalf("single-sketch snapshot loaded as %d generations", chained.Generations())
	}
}

// snapshotVersion is the format version in a snapshot's header.
func snapshotVersion(b []byte) uint32 { return binary.LittleEndian.Uint32(b[4:8]) }

// TestSaveWritesVersion4: every engine, one sketch or a chain, saves the
// version-4 container.
func TestSaveWritesVersion4(t *testing.T) {
	cfg := gsketch.Config{TotalBytes: 64 << 10, Seed: 7}
	edges := synthetic(2_000)
	for name, opts := range map[string][]gsketch.Option{
		"partitioned": {gsketch.WithSample(edges)},
		"global":      {gsketch.WithGlobal()},
		"windowed":    {gsketch.WithGlobal(), gsketch.WithWindows(gsketch.WindowConfig{Span: 10, SampleSize: 64})},
		"adaptive": {gsketch.WithSample(edges), gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 64, Seed: 3},
			gsketch.AdaptConfig{Sketch: cfg})},
	} {
		t.Run(name, func(t *testing.T) {
			eng, err := gsketch.Open(cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.Ingest(context.Background(), edges...); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := eng.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if v := snapshotVersion(buf.Bytes()); v != 4 {
				t.Fatalf("Save wrote version %d, want 4", v)
			}
		})
	}
}

// TestOlderSnapshotVersionsRestore: a version-2 stream (one bare sketch)
// and a version-3 container (a generation count, then version-2 streams)
// still restore through Open(WithRestore) and Restore, answering as the
// engine they were taken from.
func TestOlderSnapshotVersionsRestore(t *testing.T) {
	eng, edges := buildPopulated(t)
	var v2 bytes.Buffer
	if _, err := eng.Sketch().WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	// The version-3 header: magic, version 3, one generation.
	v3 := binary.LittleEndian.AppendUint32(nil, binary.LittleEndian.Uint32(v2.Bytes()))
	v3 = binary.LittleEndian.AppendUint32(v3, 3)
	v3 = binary.LittleEndian.AppendUint64(v3, 1)
	v3 = append(v3, v2.Bytes()...)

	qs := make([]gsketch.EdgeQuery, 500)
	for i := range qs {
		qs[i] = gsketch.EdgeQuery{Src: edges[i].Src, Dst: edges[i].Dst}
	}
	want := eng.QueryBatch(qs)
	same := func(t *testing.T, e *gsketch.Engine) {
		t.Helper()
		for i, r := range e.QueryBatch(qs) {
			if r != want[i] {
				t.Fatalf("query %d: restored %+v, want %+v", i, r, want[i])
			}
		}
	}
	for version, snap := range map[uint32][]byte{2: v2.Bytes(), 3: v3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			if v := snapshotVersion(snap); v != version {
				t.Fatalf("test stream is version %d, want %d", v, version)
			}
			opened, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(bytes.NewReader(snap)))
			if err != nil {
				t.Fatal(err)
			}
			defer opened.Close()
			same(t, opened)

			live, err := gsketch.Open(gsketch.Config{TotalBytes: 64 << 10, Seed: 7}, gsketch.WithGlobal())
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			if err := live.Restore(bytes.NewReader(snap)); err != nil {
				t.Fatal(err)
			}
			same(t, live)
		})
	}
}

// TestSaveRejectsUnserializableEstimator checks the typed failure instead
// of a garbage write, for a foreign estimator with no serialized form.
func TestSaveRejectsUnserializableEstimator(t *testing.T) {
	foreign := &gatedEstimator{gate: make(chan struct{})}
	close(foreign.gate)
	eng, err := gsketch.Open(gsketch.Config{TotalWidth: 256, Seed: 1}, gsketch.WithEstimator(foreign))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Save(io.Discard); err == nil {
		t.Fatal("engine over a foreign estimator saved unexpectedly")
	}
}

// TestGlobalEngineSnapshotRoundTrip: a WithGlobal engine saves its leafless
// sketch to its snapshot file, and an engine restored from that file
// answers every query exactly as the saved one did.
func TestGlobalEngineSnapshotRoundTrip(t *testing.T) {
	cfg := gsketch.Config{TotalWidth: 4096, Seed: 5}
	path := filepath.Join(t.TempDir(), "global.snap")
	edges := synthetic(20_000)
	eng, err := gsketch.Open(cfg, gsketch.WithGlobal(), gsketch.WithSnapshotFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	back, err := gsketch.Open(cfg, gsketch.WithRestoreFile(path))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Sketch().NumPartitions() != 0 {
		t.Fatalf("restored %d partitions, want the leafless global sketch", back.Sketch().NumPartitions())
	}
	qs := make([]gsketch.EdgeQuery, 0, 1000)
	for _, e := range edges[:1000] {
		qs = append(qs, gsketch.EdgeQuery{Src: e.Src, Dst: e.Dst})
	}
	want, got := eng.QueryBatch(qs), back.QueryBatch(qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d: restored %+v, saved %+v", i, got[i], want[i])
		}
		if !want[i].Outlier || want[i].Partition != gsketch.NoPartition {
			t.Fatalf("query %d: global answer %+v is not an outlier answer", i, want[i])
		}
	}
}

// TestLoadRejectsCorruptInput drives the error paths of the deserializer
// behind WithRestore: truncations at every prefix length and flipped bytes
// must fail Open loudly, never serve a silently wrong sketch.
func TestLoadRejectsCorruptInput(t *testing.T) {
	eng, _ := buildPopulated(t)
	var buf bytes.Buffer
	if _, err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	restore := func(b []byte) error {
		e, err := gsketch.Open(gsketch.Config{}, gsketch.WithRestore(bytes.NewReader(b)))
		if err == nil {
			e.Close()
		}
		return err
	}

	if err := restore(nil); err == nil {
		t.Fatal("empty input loaded")
	}
	// Truncations: sample prefix lengths across the blob (every byte would
	// be slow at this size).
	for cut := 1; cut < len(blob); cut += 1 + len(blob)/257 {
		if err := restore(blob[:cut]); err == nil {
			t.Fatalf("truncated input (%d of %d bytes) loaded", cut, len(blob))
		}
	}
	// Header corruptions: magic and version.
	for _, off := range []int{0, 4} {
		bad := append([]byte(nil), blob...)
		bad[off] ^= 0xff
		if err := restore(bad); err == nil {
			t.Fatalf("corrupt byte at offset %d loaded", off)
		}
	}
	// Counter corruption must be caught by the per-sketch checksum.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xff
	if err := restore(bad); err == nil {
		t.Fatal("corrupt counter payload loaded")
	}
}
