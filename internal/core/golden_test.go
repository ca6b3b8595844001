package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGSketchSnapshotGolden pins the snapshot format: the SHA-256 of
// GSketch.WriteTo for a small fixed sketch, plain and conservative. The
// digests were computed at the commit before the sketch bank replaced the
// per-partition CountMin allocations, so they prove that a change of the
// in-memory layout leaves every hash coefficient, counter, local volume
// and serialized byte where it was. A deliberate format change bumps
// gskVersion and recomputes them.
func TestGSketchSnapshotGolden(t *testing.T) {
	edges := testStream(6000, 77)
	for _, tc := range []struct {
		name         string
		conservative bool
		want         string
	}{
		{"plain", false, "c922f264724db22f95f87666e6843317a8ea27115f4b407cd16a67b4b01093e6"},
		{"conservative", true, "3f7088cf4398f8dcc12c7ccdd1e13a9bc68ebb8edcdac40295940a9b2b84dc86"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := BuildGSketch(Config{
				TotalBytes: 48 << 10, Depth: 4, Seed: 1234, Conservative: tc.conservative,
			}, edges[:1500], nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.NumPartitions() < 4 {
				t.Fatalf("fixture built %d partitions, want several", g.NumPartitions())
			}
			// Both write paths, so the digest covers routed batches and
			// single-edge updates.
			g.UpdateBatch(edges[:5000])
			for _, e := range edges[5000:] {
				g.Update(e)
			}
			var buf bytes.Buffer
			if _, err := g.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("snapshot digest %s, want %s (%d bytes)", got, tc.want, buf.Len())
			}
		})
	}
}
