package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/graphstream/gsketch/internal/sketch"
	"github.com/graphstream/gsketch/internal/stream"
)

func TestGSketchSerializeRoundTrip(t *testing.T) {
	edges := testStream(10000, 20)
	g, err := BuildGSketch(Config{TotalBytes: 64 << 10, Seed: 9}, edges[:1000], nil)
	if err != nil {
		t.Fatal(err)
	}
	Populate(g, edges)

	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGSketch(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if got.Count() != g.Count() {
		t.Errorf("count %d != %d", got.Count(), g.Count())
	}
	if got.NumPartitions() != g.NumPartitions() {
		t.Errorf("partitions %d != %d", got.NumPartitions(), g.NumPartitions())
	}
	if got.OutlierWidth() != g.OutlierWidth() {
		t.Errorf("outlier width %d != %d", got.OutlierWidth(), g.OutlierWidth())
	}
	if got.Order() != g.Order() {
		t.Errorf("order %v != %v", got.Order(), g.Order())
	}
	exact := stream.NewExactCounter()
	exact.ObserveAll(edges)
	exact.RangeEdges(func(src, dst uint64, _ int64) bool {
		if got.EstimateEdge(src, dst) != g.EstimateEdge(src, dst) {
			t.Fatalf("estimate mismatch on (%d,%d)", src, dst)
		}
		return true
	})
	// The loaded sketch keeps working for updates.
	got.Update(stream.Edge{Src: 1, Dst: 2, Weight: 5})
	if got.Count() != g.Count()+5 {
		t.Error("loaded sketch does not accept updates")
	}
}

func TestGSketchSerializeCorruption(t *testing.T) {
	g, err := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: 9}, testStream(500, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadGSketch(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncation not detected")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ReadGSketch(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic not detected")
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)-10] ^= 0xFF // inside the last CountMin's checksummed region
	if _, err := ReadGSketch(bytes.NewReader(flip)); err == nil {
		t.Error("cell corruption not detected")
	}
	if _, err := ReadGSketch(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestGSketchSerializeRejectsNonCountMin(t *testing.T) {
	cfg := Config{
		TotalBytes: 16 << 10,
		Seed:       9,
		Factory: func(w, d int, seed uint64) (sketch.Synopsis, error) {
			return sketch.NewCountSketch(w, d, seed)
		},
	}
	g, err := BuildGSketch(cfg, testStream(500, 22), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err == nil {
		t.Error("CountSketch-backed gSketch serialized; only CountMin is supported")
	}
}

func TestConcurrentWrapper(t *testing.T) {
	edges := testStream(5000, 23)
	g, err := BuildGSketch(Config{TotalBytes: 32 << 10, Seed: 9}, edges[:500], nil)
	if err != nil {
		t.Fatal(err)
	}
	c := NewConcurrent(g)

	done := make(chan struct{})
	go func() {
		defer close(done)
		c.UpdateBatch(edges[:2500])
		for _, e := range edges[2500:] {
			c.Update(e)
		}
	}()
	// Concurrent readers while the writer runs.
	for i := 0; i < 1000; i++ {
		_ = c.EstimateEdge(uint64(i%128), uint64(i%512))
		_ = c.Count()
	}
	<-done
	if c.Count() != int64(len(edges)) {
		t.Errorf("count = %d, want %d", c.Count(), len(edges))
	}
	if c.MemoryBytes() <= 0 {
		t.Error("memory unreported")
	}
	if c.Unwrap() != g {
		t.Error("unwrap identity lost")
	}
}

// forgedSnapshot builds a gSketch stream prefix by hand: the fixed header,
// the given leaves' widths, and a route count — everything up to where
// routes, then the shards' CountMin records, would follow.
func forgedSnapshot(depth, totalWidth, outlierW, numLeaves uint64, leafWidths []uint64, numRoutes uint64) []byte {
	var b []byte
	u64 := func(vs ...uint64) {
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, gskMagic)
	b = binary.LittleEndian.AppendUint32(b, gskVersion)
	u64(depth, 0, 0, totalWidth, outlierW, numLeaves)
	for _, w := range leafWidths {
		u64(w, 1, 0, 0)
		b = append(b, 0)
	}
	if len(leafWidths) == int(numLeaves) {
		u64(numRoutes)
	}
	return b
}

// TestReadGSketchDoesNotTrustHeaders feeds the reader headers of about a
// hundred bytes that claim billions of routes, leaves or cells. Each must
// come back as sketch.ErrCorrupt having allocated next to nothing: tables
// are pre-sized only up to a cap, widths are checked against the declared
// budget before anything is laid out, and cells are allocated as they
// arrive.
func TestReadGSketchDoesNotTrustHeaders(t *testing.T) {
	for name, data := range map[string][]byte{
		"2^32 routes":               forgedSnapshot(5, 100, 10, 1, []uint64{90}, 1<<32),
		"2^24 leaves":               forgedSnapshot(5, 1<<30, 0, 1<<24, []uint64{64}, 0),
		"2^31-column leaf":          forgedSnapshot(5, 1<<31, 0, 1, []uint64{1 << 31}, 0),
		"2^40 columns":              forgedSnapshot(5, 1<<40, 1<<39, 1, []uint64{1 << 39}, 0),
		"leaf wider than the total": forgedSnapshot(5, 100, 0, 1, []uint64{101}, 0),
		"leaves outgrow the total":  forgedSnapshot(5, 100, 10, 2, []uint64{50, 41}, 0),
		"outlier wider than total":  forgedSnapshot(5, 100, 101, 1, nil, 0),
		"empty leaf":                forgedSnapshot(5, 100, 0, 1, []uint64{0}, 0),
		"no depth":                  forgedSnapshot(0, 100, 0, 1, []uint64{100}, 0),
		"depth overflows the cells": forgedSnapshot(1<<62, 100, 0, 1, []uint64{100}, 0),
		"no width":                  forgedSnapshot(5, 0, 0, 1, nil, 0),
	} {
		if len(data) > 130 {
			t.Fatalf("%s: the forged header is %d bytes", name, len(data))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadGSketch(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, sketch.ErrCorrupt) {
			t.Errorf("%s: err = %v, want sketch.ErrCorrupt", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(data), got)
		}
	}
}

// TestReadGSketchChecksRecordsAgainstLeaves: the shards' records must be
// the sketches the leaf table describes.
func TestReadGSketchChecksRecordsAgainstLeaves(t *testing.T) {
	g, err := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: 9}, testStream(500, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := serializeGSketch(t, g)
	// The header's depth field (offset 8) disagrees with every record.
	deeper := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(deeper[8:], uint64(g.Depth())+1)
	if _, err := ReadGSketch(bytes.NewReader(deeper)); !errors.Is(err, sketch.ErrCorrupt) {
		t.Errorf("depth mismatch: err = %v, want sketch.ErrCorrupt", err)
	}
	// The first leaf (offset 56) is one column narrower than its record.
	narrower := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(narrower[56:], uint64(g.Leaves()[0].Width)-1)
	if _, err := ReadGSketch(bytes.NewReader(narrower)); !errors.Is(err, sketch.ErrCorrupt) {
		t.Errorf("width mismatch: err = %v, want sketch.ErrCorrupt", err)
	}
}
