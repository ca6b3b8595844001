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
// gskVersion and recomputes them. They were recomputed once since, without
// a format change, when the √(F̃G) width rule moved the fixture's leaf
// widths.
func TestGSketchSnapshotGolden(t *testing.T) {
	edges := testStream(6000, 77)
	for _, tc := range []struct {
		name         string
		conservative bool
		want         string
	}{
		{"plain", false, "79d302cf78b8941f88174cb6d76fd5d5e7b64ed331f702ee82f64608d0104e9e"},
		{"conservative", true, "531454e8375566f8c838ba74ec393fc667cc44652dfa2a8d6e4f604c74465aad"},
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
