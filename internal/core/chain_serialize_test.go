package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// writeChainV3 writes a version-3 chain container, the format before
// per-generation lifecycle records: the {magic, version, numGens} header,
// then every generation's full version-2 stream, oldest first. No writer
// in the program emits it any more; the back-compat tests build their
// version-3 bytes with it.
func writeChainV3(w io.Writer, gens []io.WriterTo) (int64, error) {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], gskMagic)
	binary.LittleEndian.PutUint32(hdr[4:], gskChainVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(gens)))
	k, err := w.Write(hdr[:])
	n := int64(k)
	for _, gen := range gens {
		if err != nil {
			return n, err
		}
		var m int64
		m, err = gen.WriteTo(w)
		n += m
	}
	return n, err
}

// A pre-chain (PR 3-era) snapshot is exactly what GSketch.WriteTo still
// produces: a version-2 stream. ReadChainMeta must load it as a one-generation
// chain answering byte-identically, and the on-disk version number must not
// have moved — that is the backward-compat contract.
func TestReadChainLoadsPreChainSnapshot(t *testing.T) {
	edges := testStream(8000, 17)
	g, err := BuildGSketch(Config{TotalBytes: 64 << 10, Seed: 7}, edges[:1000], nil)
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if v := binary.LittleEndian.Uint32(raw[4:8]); v != gskVersion {
		t.Fatalf("single-sketch snapshot version = %d, want %d (pre-chain byte streams must stay loadable)", v, gskVersion)
	}

	gens, _, err := ReadChainMeta(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadChainMeta on pre-chain stream: %v", err)
	}
	if len(gens) != 1 {
		t.Fatalf("generations = %d, want 1", len(gens))
	}
	if gens[0].Count() != g.Count() {
		t.Fatalf("count = %d, want %d", gens[0].Count(), g.Count())
	}
	for _, e := range edges[:200] {
		if got, want := gens[0].EstimateEdge(e.Src, e.Dst), g.EstimateEdge(e.Src, e.Dst); got != want {
			t.Fatalf("edge (%d,%d): restored %d != live %d", e.Src, e.Dst, got, want)
		}
	}
}

func TestWriteChainReadChainRoundTrip(t *testing.T) {
	edges := testStream(10000, 19)
	var gens []*GSketch
	var writers []io.WriterTo
	for i := 0; i < 3; i++ {
		g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: uint64(i + 1)}, edges[i*1000:(i+1)*1000], nil)
		if err != nil {
			t.Fatal(err)
		}
		Populate(g, edges[i*3000:(i+1)*3000])
		gens = append(gens, g)
		writers = append(writers, g)
	}
	var buf bytes.Buffer
	if _, err := WriteChainMeta(&buf, writers, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(gens) {
		t.Fatalf("generations = %d, want %d", len(got), len(gens))
	}
	for i := range gens {
		if got[i].Count() != gens[i].Count() {
			t.Fatalf("generation %d: count %d, want %d", i, got[i].Count(), gens[i].Count())
		}
		for _, e := range edges[:100] {
			if a, b := got[i].EstimateEdge(e.Src, e.Dst), gens[i].EstimateEdge(e.Src, e.Dst); a != b {
				t.Fatalf("generation %d edge (%d,%d): %d != %d", i, e.Src, e.Dst, a, b)
			}
		}
	}
}

func TestReadChainRejectsCorruptContainers(t *testing.T) {
	g, err := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: 3}, testStream(500, 23), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteChainMeta(&buf, []io.WriterTo{g}, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Truncated mid-generation.
	if _, _, err := ReadChainMeta(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated chain loaded")
	}
	// Implausible generation count.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[8:16], 1<<20)
	if _, _, err := ReadChainMeta(bytes.NewReader(bad)); err == nil {
		t.Fatal("implausible generation count loaded")
	}
	// Unknown version.
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[4:8], 99)
	if _, _, err := ReadChainMeta(bytes.NewReader(bad)); err == nil {
		t.Fatal("unknown version loaded")
	}
	// Bad magic.
	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[0:4], 0xdeadbeef)
	if _, _, err := ReadChainMeta(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic loaded")
	}
	// ReadGSketch stays strict: it must refuse the chain container.
	if _, err := ReadGSketch(bytes.NewReader(raw)); err == nil {
		t.Fatal("ReadGSketch accepted a chain container")
	}
	if _, err := WriteChainMeta(io.Discard, nil, nil); err == nil {
		t.Fatal("WriteChainMeta accepted an empty chain")
	}
	// Corruption errors carry the sketch.ErrCorrupt sentinel for errors.Is.
	if _, _, err := ReadChainMeta(bytes.NewReader(raw[:4])); !errors.Is(err, sketch.ErrCorrupt) {
		t.Fatalf("truncated header error %v does not wrap ErrCorrupt", err)
	}
}

// The version-4 container round-trips the per-generation lifecycle
// records — build times and compaction lineage — alongside the counters.
func TestWriteChainMetaRoundTrip(t *testing.T) {
	edges := testStream(9000, 29)
	var gens []*GSketch
	var writers []io.WriterTo
	metas := []GenerationMeta{
		{BuiltAt: 1_700_000_000, CompactedFrom: 3},
		{BuiltAt: 1_700_000_600, CompactedFrom: 1, Window: 1 << 63}, // window MaxInt64
	}
	for i := 0; i < 2; i++ {
		g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: uint64(i + 1)}, edges[i*1000:(i+1)*1000], nil)
		if err != nil {
			t.Fatal(err)
		}
		Populate(g, edges[i*4000:(i+1)*4000])
		gens = append(gens, g)
		writers = append(writers, g)
	}
	var buf bytes.Buffer
	if _, err := WriteChainMeta(&buf, writers, metas); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != gskChainMetaVersion {
		t.Fatalf("container version = %d, want %d", v, gskChainMetaVersion)
	}

	got, gotMetas, err := ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(gotMetas) != 2 {
		t.Fatalf("restored %d generations / %d metas, want 2 / 2", len(got), len(gotMetas))
	}
	for i := range gens {
		if gotMetas[i] != metas[i] {
			t.Fatalf("generation %d: meta %+v, want %+v", i, gotMetas[i], metas[i])
		}
		if got[i].Count() != gens[i].Count() {
			t.Fatalf("generation %d: count %d, want %d", i, got[i].Count(), gens[i].Count())
		}
		for _, e := range edges[:200] {
			if a, b := got[i].EstimateEdge(e.Src, e.Dst), gens[i].EstimateEdge(e.Src, e.Dst); a != b {
				t.Fatalf("generation %d edge (%d,%d): %d != %d", i, e.Src, e.Dst, a, b)
			}
		}
	}

	// Mismatched meta count is a caller bug, not a silent truncation.
	if _, err := WriteChainMeta(io.Discard, writers, metas[:1]); err == nil {
		t.Fatal("WriteChainMeta accepted a meta/generation count mismatch")
	}

	// A truncated lifecycle record must not load.
	raw := buf.Bytes()
	if _, _, err := ReadChainMeta(bytes.NewReader(raw[:20])); err == nil {
		t.Fatal("truncated v4 record loaded")
	}
	// Nor may a window past MaxInt64: the first record's window field
	// follows the 16-byte header, builtAt and compactedFrom.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[32:], 1<<63+1)
	if _, _, err := ReadChainMeta(bytes.NewReader(bad)); !errors.Is(err, sketch.ErrCorrupt) {
		t.Fatalf("out-of-range window field: %v, want ErrCorrupt", err)
	}
}

// A version-3 chain stream (the pre-lifecycle writer) must keep loading
// through ReadChainMeta: zero-value lifecycle records, identical counters.
// That is the back-compat contract for snapshots taken before this PR.
func TestReadChainMetaLoadsVersion3Stream(t *testing.T) {
	edges := testStream(8000, 37)
	var gens []*GSketch
	var writers []io.WriterTo
	for i := 0; i < 3; i++ {
		g, err := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: uint64(i + 5)}, edges[i*800:(i+1)*800], nil)
		if err != nil {
			t.Fatal(err)
		}
		Populate(g, edges[i*2500:(i+1)*2500])
		gens = append(gens, g)
		writers = append(writers, g)
	}
	var buf bytes.Buffer
	if _, err := writeChainV3(&buf, writers); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:8]); v != gskChainVersion {
		t.Fatalf("legacy writer produced version %d, want pinned %d", v, gskChainVersion)
	}

	got, metas, err := ReadChainMeta(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadChainMeta on v3 stream: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("restored %d generations, want 3", len(got))
	}
	for i := range gens {
		// Legacy streams carry no lifecycle data: unknown build time, and
		// each generation normalized to a single source build.
		if metas[i] != (GenerationMeta{CompactedFrom: 1}) {
			t.Fatalf("generation %d: v3 meta %+v, want {BuiltAt:0 CompactedFrom:1}", i, metas[i])
		}
		if got[i].Count() != gens[i].Count() {
			t.Fatalf("generation %d: count %d, want %d", i, got[i].Count(), gens[i].Count())
		}
		for _, e := range edges[:200] {
			if a, b := got[i].EstimateEdge(e.Src, e.Dst), gens[i].EstimateEdge(e.Src, e.Dst); a != b {
				t.Fatalf("generation %d edge (%d,%d): %d != %d", i, e.Src, e.Dst, a, b)
			}
		}
	}
}

func TestRouteStats(t *testing.T) {
	// Sample covers sources 0..9; everything else is outlier traffic.
	var sample []stream.Edge
	for i := uint64(0); i < 10; i++ {
		for j := 0; j < 10; j++ {
			sample = append(sample, stream.Edge{Src: i, Dst: uint64(j), Weight: 1})
		}
	}
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 5}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(g)

	// Writes: 100 routed edges in one batch, 1 outlier edge in another.
	c.UpdateBatch(sample)
	c.UpdateBatch([]stream.Edge{{Src: 999, Dst: 1, Weight: 1}})
	w := c.WriteRouteCounts()
	if w.Total != int64(len(sample))+1 {
		t.Fatalf("write total = %d, want %d", w.Total, len(sample)+1)
	}
	if w.Outlier != 1 {
		t.Fatalf("write outlier = %d, want 1", w.Outlier)
	}
	var partSum int64
	for _, n := range w.Partitions {
		partSum += n
	}
	if partSum != int64(len(sample)) {
		t.Fatalf("write partition hits = %d, want %d", partSum, len(sample))
	}

	// Reads: 40 queries, half known half unknown, then a one-query batch.
	var qs []EdgeQuery
	for i := 0; i < 40; i++ {
		src := uint64(i % 10)
		if i%2 == 1 {
			src = uint64(500 + i)
		}
		qs = append(qs, EdgeQuery{Src: src, Dst: 0})
	}
	c.EstimateBatch(qs)
	c.EstimateBatch([]EdgeQuery{{Src: 777, Dst: 0}})
	r := c.ReadRouteCounts()
	if r.Total != 41 {
		t.Fatalf("read total = %d, want 41", r.Total)
	}
	if r.Outlier != 21 {
		t.Fatalf("read outlier = %d, want 21", r.Outlier)
	}
	if share := r.OutlierShare(); share < 0.5 || share > 0.52 {
		t.Fatalf("read outlier share = %v, want ~21/41", share)
	}
	if (RouteCounts{}).OutlierShare() != 0 {
		t.Fatal("zero RouteCounts share must be 0")
	}
}
