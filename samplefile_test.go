package gsketch_test

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/stream"
)

// writeSampleFile writes edges to a fresh file in the binary format, or in
// the text one when text is set, and returns its path.
func writeSampleFile(t testing.TB, edges []gsketch.Edge, text bool) string {
	t.Helper()
	var buf bytes.Buffer
	write := stream.WriteBinaryEdges
	if text {
		write = stream.WriteTextEdges
	}
	if err := write(&buf, edges); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample")
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// snapshotAfter opens an engine with opts, ingests edges and returns its
// snapshot bytes.
func snapshotAfter(t *testing.T, edges []gsketch.Edge, opts ...gsketch.Option) []byte {
	t.Helper()
	eng, err := gsketch.Open(engineTestCfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), edges...); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	return snap.Bytes()
}

// TestOpenSampleFileMatchesSample: an engine opened from a sample file
// writes the snapshot bytes of one opened from the same edges in memory —
// both formats, a limit, a workload sample, an adaptive chain.
func TestOpenSampleFileMatchesSample(t *testing.T) {
	edges := engineTestStream(20_000, 9)
	sample := edges[:5_000]
	workload := edges[100:600]
	adaptive := gsketch.WithAdaptive(gsketch.ChainConfig{SampleSize: 512, Seed: 3}, gsketch.AdaptConfig{})
	for _, tc := range []struct {
		name  string
		text  bool
		limit int
		extra []gsketch.Option
	}{
		{name: "binary"},
		{name: "text", text: true},
		{name: "binary-limit", limit: 3_001},
		{name: "text-limit", text: true, limit: 3_001},
		{name: "workload", extra: []gsketch.Option{gsketch.WithWorkloadSample(workload)}},
		{name: "adaptive", extra: []gsketch.Option{adaptive}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSampleFile(t, sample, tc.text)
			inMemory := sample
			if tc.limit > 0 {
				inMemory = sample[:tc.limit]
			}
			want := snapshotAfter(t, edges, append([]gsketch.Option{gsketch.WithSample(inMemory)}, tc.extra...)...)
			got := snapshotAfter(t, edges, append([]gsketch.Option{gsketch.WithSampleFile(path, tc.limit)}, tc.extra...)...)
			if !bytes.Equal(got, want) {
				t.Fatalf("WithSampleFile snapshot (%d bytes) differs from WithSample's (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestOpenRefusesNegativeSampleWeights: a sample edge with a negative
// weight fails Open with ErrNegativeWeight, naming the option and the edge,
// from every source a sample comes from. Before, one source at weight −2⁴⁰
// opened without an error, on a leaf summing f̃v to about −1.1e12.
func TestOpenRefusesNegativeSampleWeights(t *testing.T) {
	sample := engineTestStream(200, 4)
	bad := append([]gsketch.Edge(nil), sample...)
	bad[3].Weight = -(1 << 40)
	for _, tc := range []struct {
		name string
		opts []gsketch.Option
		says []string
	}{
		{"WithSample", []gsketch.Option{gsketch.WithSample(bad)}, []string{"WithSample:", "sample edge 3 has weight -1099511627776"}},
		{"WithWorkloadSample", []gsketch.Option{gsketch.WithSample(sample), gsketch.WithWorkloadSample(bad)},
			[]string{"WithWorkloadSample:", "edge 3 of 200"}},
		{"WithSampleFile", []gsketch.Option{gsketch.WithSampleFile(writeSampleFile(t, bad, false), 0)},
			[]string{"WithSampleFile", "sample edge 3 has weight -1099511627776"}},
		{"WithSampleFile text", []gsketch.Option{gsketch.WithSampleFile(writeSampleFile(t, bad, true), 0)},
			[]string{"WithSampleFile", "sample edge 3 has weight -1099511627776"}},
	} {
		eng, err := gsketch.Open(engineTestCfg, tc.opts...)
		if !errors.Is(err, gsketch.ErrNegativeWeight) {
			if eng != nil {
				eng.Close()
			}
			t.Errorf("%s: Open = %v, want ErrNegativeWeight", tc.name, err)
			continue
		}
		for _, s := range tc.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("%s: error %q does not say %q", tc.name, err, s)
			}
		}
	}
}

// TestOpenSampleFileValidation pins what the file source refuses.
func TestOpenSampleFileValidation(t *testing.T) {
	path := writeSampleFile(t, engineTestStream(100, 1), false)
	for name, opts := range map[string][]gsketch.Option{
		"with WithSample": {gsketch.WithSampleFile(path, 0), gsketch.WithSample(engineTestStream(10, 1))},
		"with WithGlobal": {gsketch.WithSampleFile(path, 0), gsketch.WithGlobal()},
		"negative limit":  {gsketch.WithSampleFile(path, -1)},
		"directory":       {gsketch.WithSampleFile(filepath.Dir(path), 0)},
		"empty file":      {gsketch.WithSampleFile(writeSampleFile(t, nil, false), 0)},
	} {
		if eng, err := gsketch.Open(engineTestCfg, opts...); err == nil {
			eng.Close()
			t.Errorf("%s: Open succeeded", name)
		}
	}
	if _, err := gsketch.Open(engineTestCfg, gsketch.WithSampleFile(path+".missing", 0)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file: %v, want fs.ErrNotExist", err)
	}
}
