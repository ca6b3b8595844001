package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
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

// Clone must be the sketch a serialize → parse round trip gives, byte for
// byte, for a built sketch and a loaded one, with the router both pre-sized
// and grown past the loader's pre-size cap; and it must own its state.
func TestCloneMatchesRoundTrip(t *testing.T) {
	rng := hashutil.NewRNG(41)
	wide := make([]stream.Edge, 3*routePresize/2)
	for i := range wide {
		wide[i] = stream.Edge{Src: uint64(i), Dst: rng.Uint64() % 4096, Weight: 1}
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		sample   []stream.Edge
		reorders bool // the router's slot order changes on load
	}{
		{"small", Config{TotalBytes: 16 << 10, Seed: 3}, testStream(1000, 31), true},
		{"conservative", Config{TotalBytes: 16 << 10, Seed: 4, Conservative: true}, testStream(1000, 32), true},
		{"grown_router", Config{TotalBytes: 1 << 20, Seed: 5}, wide, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := BuildGSketch(tc.cfg, tc.sample, nil)
			if err != nil {
				t.Fatal(err)
			}
			g.UpdateBatch(testStream(5000, 33))
			built := serializeGSketch(t, g)
			loaded, err := ReadGSketch(bytes.NewReader(built))
			if err != nil {
				t.Fatal(err)
			}
			roundTrip := serializeGSketch(t, loaded)
			if tc.reorders && bytes.Equal(built, roundTrip) {
				t.Fatal("fixture router keeps its slot order on load; it cannot tell a refilled router from a shared one")
			}
			for name, src := range map[string]*GSketch{"built": g, "loaded": loaded} {
				want := serializeGSketch(t, src)
				c := src.Clone()
				viaBytes, err := ReadGSketch(bytes.NewReader(want))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := serializeGSketch(t, c), serializeGSketch(t, viaBytes); !bytes.Equal(got, want) {
					t.Fatalf("%s: clone serializes unlike the round trip", name)
				}
				if !reflect.DeepEqual(c.cfg, viaBytes.cfg) {
					t.Fatalf("%s: clone config %+v, round trip %+v", name, c.cfg, viaBytes.cfg)
				}
				c.Update(stream.Edge{Src: 1, Dst: 2, Weight: 7})
				if !bytes.Equal(serializeGSketch(t, src), want) {
					t.Fatalf("%s: writing the clone changed its source", name)
				}
				if c.Count() != src.Count()+7 {
					t.Fatalf("%s: clone volume %d, want %d", name, c.Count(), src.Count()+7)
				}
			}
		})
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

// forgedHeaders are snapshot prefixes of about a hundred bytes that claim
// billions of routes, leaves or cells, or a layout that cannot hold.
func forgedHeaders() map[string][]byte {
	return map[string][]byte{
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
	}
}

// TestReadGSketchDoesNotTrustHeaders feeds the reader the forged headers.
// Each must come back as sketch.ErrCorrupt having allocated next to
// nothing: tables are pre-sized only up to a cap, widths are checked against
// the declared budget before anything is laid out, and cells are allocated
// as they arrive.
func TestReadGSketchDoesNotTrustHeaders(t *testing.T) {
	for name, data := range forgedHeaders() {
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

// TestReadGSketchIgnoresTrimmedFlag reads a snapshot whose leaves carry the
// retired trimmed flag set, as earlier builds wrote it: the sketch loads,
// and writes back the same bytes with the flag cleared.
func TestReadGSketchIgnoresTrimmedFlag(t *testing.T) {
	g, err := BuildGSketch(Config{TotalBytes: 16 << 10, Seed: 9}, testStream(500, 21), nil)
	if err != nil {
		t.Fatal(err)
	}
	data := serializeGSketch(t, g)
	flagged := append([]byte(nil), data...)
	for i := range g.Leaves() {
		flagged[56+33*i+32] = 1 // past the header, 32 bytes into leaf i
	}
	back, err := ReadGSketch(bytes.NewReader(flagged))
	if err != nil {
		t.Fatal(err)
	}
	if got := serializeGSketch(t, back); !bytes.Equal(sortedRoutes(t, got), sortedRoutes(t, data)) {
		t.Error("a snapshot with trimmed flags set does not re-serialize to the unflagged one")
	}
}

// sortedRoutes returns a copy of a snapshot with its route records sorted:
// the route section follows the router's slot order, which a linear-probe
// table refilled in that order can still permute where a probe run wraps
// past the table's end, so two snapshots of one sketch may list the same
// routes in different orders.
func sortedRoutes(tb testing.TB, snap []byte) []byte {
	tb.Helper()
	le := binary.LittleEndian
	at := 56 + 33*int(le.Uint64(snap[48:])) // past the header and leaf table
	n := int(le.Uint64(snap[at:]))
	at += 8
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = snap[at+12*i : at+12*i+12]
	}
	slices.SortFunc(recs, bytes.Compare)
	out := slices.Clone(snap[:at])
	for _, r := range recs {
		out = append(out, r...)
	}
	return append(out, snap[at+12*n:]...)
}

// FuzzReadGSketch feeds the snapshot reader arbitrary bytes, seeded with the
// forged headers and one real snapshot. No input may panic. A sketch that
// reads back must re-serialize to bytes that read back to the same sketch —
// the same bytes up to the order of the route records — its Clone must
// serialize exactly as that reloaded copy does, and it must answer a query
// batch alike in batch and one query at a time.
func FuzzReadGSketch(f *testing.F) {
	for _, data := range forgedHeaders() {
		f.Add(data)
	}
	g, err := BuildGSketch(Config{TotalBytes: 2 << 10, Seed: 3}, testStream(200, 5), nil)
	if err != nil {
		f.Fatal(err)
	}
	g.UpdateBatch(testStream(500, 6))
	var snap bytes.Buffer
	if _, err := g.WriteTo(&snap); err != nil {
		f.Fatal(err)
	}
	f.Add(snap.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGSketch(bytes.NewReader(data))
		if err != nil {
			return
		}
		once := serializeGSketch(t, g)
		again, err := ReadGSketch(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("a loaded sketch's snapshot does not read back: %v", err)
		}
		twice := serializeGSketch(t, again)
		if !bytes.Equal(sortedRoutes(t, twice), sortedRoutes(t, once)) {
			t.Fatal("a loaded sketch's snapshot reads back to a different sketch")
		}
		if !bytes.Equal(serializeGSketch(t, g.Clone()), twice) {
			t.Fatal("Clone serializes unlike the round trip")
		}
		// Routed sources, vertex 0 and whatever the input's words name.
		qs := []EdgeQuery{{Src: 0, Dst: 0}}
		g.router.Range(func(v uint64, _ int32) bool {
			qs = append(qs, EdgeQuery{Src: v, Dst: v})
			return len(qs) < 256
		})
		for i := 0; i+16 <= len(data); i += 16 {
			qs = append(qs, EdgeQuery{Src: binary.LittleEndian.Uint64(data[i:]), Dst: binary.LittleEndian.Uint64(data[i+8:])})
		}
		for i, r := range g.EstimateBatch(qs) {
			if r.Estimate != g.EstimateEdge(qs[i].Src, qs[i].Dst) {
				t.Fatalf("query %d: batch estimate %d, single %d", i, r.Estimate, g.EstimateEdge(qs[i].Src, qs[i].Dst))
			}
		}
	})
}

// FuzzReadChainMeta feeds the chain reader — the one behind every restore
// path — arbitrary bytes, seeded with the forged headers bare and wrapped
// as one-generation version-4 chains, and a real three-generation chain in
// both container versions. No input may panic, and a chain that loads has
// one lifecycle record per generation. Re-serialized through
// WriteChainMeta it must load back with equal records and, generation by
// generation, the same snapshot up to route order.
func FuzzReadChainMeta(f *testing.F) {
	for _, data := range forgedHeaders() {
		f.Add(data)
		chain := binary.LittleEndian.AppendUint32(nil, gskMagic)
		chain = binary.LittleEndian.AppendUint32(chain, gskChainMetaVersion)
		chain = binary.LittleEndian.AppendUint64(chain, 1)
		chain = binary.LittleEndian.AppendUint64(chain, 0) // BuiltAt
		chain = binary.LittleEndian.AppendUint64(chain, 1) // CompactedFrom
		chain = binary.LittleEndian.AppendUint64(chain, 0) // reserved
		f.Add(append(chain, data...))
	}
	var gens []io.WriterTo
	for i := uint64(0); i < 3; i++ {
		g, err := BuildGSketch(Config{TotalBytes: 2 << 10, Seed: 3 + i}, testStream(200, 5+i), nil)
		if err != nil {
			f.Fatal(err)
		}
		g.UpdateBatch(testStream(300, 8+i))
		gens = append(gens, g)
	}
	var v4, v3 bytes.Buffer
	if _, err := WriteChainMeta(&v4, gens, []GenerationMeta{{BuiltAt: 100, CompactedFrom: 1}, {BuiltAt: 200, CompactedFrom: 3}, {BuiltAt: 300, CompactedFrom: 1}}); err != nil {
		f.Fatal(err)
	}
	if _, err := WriteChain(&v3, gens); err != nil {
		f.Fatal(err)
	}
	f.Add(v4.Bytes())
	f.Add(v3.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		gens, metas, err := ReadChainMeta(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(gens) != len(metas) {
			t.Fatalf("%d generations but %d lifecycle records", len(gens), len(metas))
		}
		writers := make([]io.WriterTo, len(gens))
		for i, g := range gens {
			writers[i] = g
		}
		var again bytes.Buffer
		if _, err := WriteChainMeta(&again, writers, metas); err != nil {
			t.Fatalf("a loaded chain does not re-serialize: %v", err)
		}
		back, backMetas, err := ReadChainMeta(&again)
		if err != nil {
			t.Fatalf("a loaded chain's snapshot does not read back: %v", err)
		}
		if !slices.Equal(backMetas, metas) {
			t.Fatalf("lifecycle records %v read back as %v", metas, backMetas)
		}
		for i := range gens {
			if !bytes.Equal(sortedRoutes(t, serializeGSketch(t, back[i])), sortedRoutes(t, serializeGSketch(t, gens[i]))) {
				t.Fatalf("generation %d reads back to a different sketch", i)
			}
		}
	})
}
