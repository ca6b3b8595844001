package vstats

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/graphstream/gsketch/internal/stream"
)

// writeEdgeFile writes edges to path in the binary format, or in the text
// one when text is set.
func writeEdgeFile(t testing.TB, path string, edges []stream.Edge, text bool) {
	t.Helper()
	var buf bytes.Buffer
	write := stream.WriteBinaryEdges
	if text {
		write = stream.WriteTextEdges
	}
	if err := write(&buf, edges); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o600); err != nil {
		t.Fatal(err)
	}
}

// sameStats holds one Stats to another field by field: vertex order and
// every field of every vertex, TotalF, lookups, and both sort orders.
func sameStats(t *testing.T, got, want *Stats) {
	t.Helper()
	equalVertices(t, "vertices", got.vertices, want.vertices)
	if got.TotalF() != want.TotalF() || got.Len() != want.Len() || got.HasWorkload() != want.HasWorkload() {
		t.Fatalf("TotalF %v, Len %d, workload %v; want %v, %d, %v",
			got.TotalF(), got.Len(), got.HasWorkload(), want.TotalF(), want.Len(), want.HasWorkload())
	}
	for _, v := range want.vertices {
		if g, ok := got.Get(v.ID); !ok || g != v {
			t.Fatalf("Get(%d) = %+v, %v; want %+v", v.ID, g, ok, v)
		}
	}
	equalVertices(t, "Sorted(ByAvgFreq)", got.Sorted(ByAvgFreq), want.Sorted(ByAvgFreq))
	equalVertices(t, "Sorted(ByFreqPerWeight)", got.Sorted(ByFreqPerWeight), want.Sorted(ByFreqPerWeight))
}

// TestFromFileMatchesFromSample: the file source computes, field by field,
// what FromSample computes from the same edges — in both formats, with
// limits that cut the file inside a chunk, at a chunk's edge, and past its
// end, over the sample shapes of the reference test (zero weights, a source
// id of 0, a hub holding most of the sample, nothing but duplicates).
func TestFromFileMatchesFromSample(t *testing.T) {
	dir := t.TempDir()
	for name, sample := range equivalenceSamples(t, !testing.Short()) {
		formats := []bool{false, true}
		limits := []int{0, 1, 1000, stream.ChunkEdges, stream.ChunkEdges + 1, 3 * stream.ChunkEdges / 2, len(sample) + 1}
		if len(sample) > 1<<16 {
			// The 1 Mi-edge samples: the whole file and one cut inside a
			// chunk, binary only, which keeps the race detector's run short.
			formats, limits = formats[:1], []int{0, 3 * stream.ChunkEdges / 2}
		}
		for _, text := range formats {
			path := filepath.Join(dir, fmt.Sprintf("%s-%v", name, text))
			writeEdgeFile(t, path, sample, text)
			for _, limit := range limits {
				want := sample
				if limit > 0 && limit < len(sample) {
					want = sample[:limit]
				}
				got, err := FromFile(path, limit)
				if err != nil {
					t.Fatalf("%s (text %v) limit %d: %v", name, text, limit, err)
				}
				t.Run(fmt.Sprintf("%s/text=%v/limit=%d", name, text, limit), func(t *testing.T) {
					sameStats(t, got, FromSample(want))
				})
			}
		}
	}
}

// TestFromFileHub: one source holding more than half the edges of a sample
// many chunks long, so its segment spans chunks on both passes.
func TestFromFileHub(t *testing.T) {
	sample := make([]stream.Edge, 5*stream.ChunkEdges+17)
	for i := range sample {
		sample[i] = stream.Edge{Src: uint64(i % 7), Dst: uint64(i * 13 % 1000), Weight: int64(i % 3)}
		if i%3 != 0 {
			sample[i].Src = 0 // the hub is vertex 0
		}
	}
	path := filepath.Join(t.TempDir(), "hub.bin")
	writeEdgeFile(t, path, sample, false)
	got, err := FromFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	sameStats(t, got, FromSample(sample))
	checkAgainstReference(t, got, sample)
}

// TestFromFileErrors: a file the passes cannot use fails with the error
// ReadEdgeFile gives for it — or, for what only the file source refuses, a
// typed error of its own — and never with statistics.
func TestFromFileErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var bin bytes.Buffer
	if err := stream.WriteBinaryEdges(&bin, sample()); err != nil {
		t.Fatal(err)
	}
	valid := bin.Bytes()
	forged := func(count uint64) []byte {
		data := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(data[8:], count)
		return data
	}
	negative := []stream.Edge{{Src: 1, Dst: 2, Weight: 1}, {Src: 3, Dst: 4, Weight: -(1 << 40)}}
	negBin := filepath.Join(dir, "neg.bin")
	writeEdgeFile(t, negBin, negative, false)
	negText := filepath.Join(dir, "neg.txt")
	writeEdgeFile(t, negText, negative, true)

	for name, tc := range map[string]struct {
		path string
		same bool  // the error must be the one ReadEdgeFile gives
		want error // else this one
	}{
		"missing":         {path: filepath.Join(dir, "nope"), want: fs.ErrNotExist},
		"short header":    {path: write("a.bin", valid[:9]), same: true, want: stream.ErrBadFormat},
		"truncated":       {path: write("b.bin", valid[:16+32]), same: true, want: stream.ErrBadFormat},
		"mid-record":      {path: write("c.bin", valid[:16+40]), same: true, want: stream.ErrBadFormat},
		"forged count":    {path: write("d.bin", forged(1<<32)), same: true, want: stream.ErrBadFormat},
		"implausible":     {path: write("e.bin", forged(1<<40)), same: true, want: stream.ErrBadFormat},
		"bad text":        {path: write("f.txt", []byte("1 2 3\nnot an edge\n")), same: true, want: stream.ErrBadFormat},
		"negative binary": {path: negBin, want: ErrNegativeWeight},
		"negative text":   {path: negText, want: ErrNegativeWeight},
		"directory":       {path: dir},
		"bad line in the chunk of a negative weight": {path: write("g.txt", []byte("1 2 -1\nx\n")), same: true, want: stream.ErrBadFormat},
	} {
		s, err := FromFile(tc.path, 0)
		if err == nil || s != nil {
			t.Errorf("%s: stats %v, error %v; want no stats and an error", name, s, err)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
		if tc.same {
			_, rerr := stream.ReadEdgeFile(tc.path, 0)
			if rerr == nil || err.Error() != rerr.Error() {
				t.Errorf("%s: error %q, ReadEdgeFile gives %q", name, err, rerr)
			}
		}
	}
	if _, err := FromFile(negBin, 0); err == nil || !strings.Contains(err.Error(), "sample edge 1 has weight -1099511627776") {
		t.Errorf("negative weight error %v does not name the edge and its weight", err)
	}
	// A limit that stops before the negative edge never reads it.
	if _, err := FromFile(negBin, 1); err != nil {
		t.Errorf("limit 1 before the negative edge: %v", err)
	}
}

// TestFromFileRewrittenBetweenPasses: a sample file replaced between the
// two passes — by a longer file, a shorter one, one of the same length and
// other sources, or the same bytes under a new modification time — fails
// with ErrSampleChanged instead of yielding statistics of neither.
func TestFromFileRewrittenBetweenPasses(t *testing.T) {
	base := rmatSample(t, 12, 3*stream.ChunkEdges, 1)
	other := make([]stream.Edge, len(base))
	for i, e := range base {
		other[i] = stream.Edge{Src: e.Src + 1, Dst: e.Dst, Weight: e.Weight}
	}
	longer := append(append([]stream.Edge(nil), base...), base[:100]...)
	for name, rewrite := range map[string]func(t *testing.T, path string){
		"longer":      func(t *testing.T, path string) { writeEdgeFile(t, path, longer, false) },
		"shorter":     func(t *testing.T, path string) { writeEdgeFile(t, path, base[:100], false) },
		"same length": func(t *testing.T, path string) { writeEdgeFile(t, path, other, false) },
		"touched": func(t *testing.T, path string) {
			later := time.Now().Add(time.Hour)
			if err := os.Chtimes(path, later, later); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sample.bin")
			writeEdgeFile(t, path, base, false)
			b := new(builder)
			replay := b.fileReplay(path, 0)
			passes := 0
			s, err := b.run(func(visit func([]stream.Edge) error) error {
				if passes++; passes == 2 {
					rewrite(t, path)
				}
				return replay(visit)
			})
			if !errors.Is(err, ErrSampleChanged) || s != nil {
				t.Fatalf("stats %v, error %v; want ErrSampleChanged", s, err)
			}
		})
	}
	// The content checks alone, for a rewrite the file's metadata does not
	// show: the second pass reads other sources at the same positions, fewer
	// edges, or more.
	for name, second := range map[string][]stream.Edge{"other sources": other, "fewer": base[:100], "more": longer} {
		b := new(builder)
		b.reserve(len(base))
		passes := 0
		_, err := b.run(func(visit func([]stream.Edge) error) error {
			if passes++; passes == 2 {
				return visit(second)
			}
			return visit(base)
		})
		if !errors.Is(err, ErrSampleChanged) {
			t.Errorf("second pass over %s: %v, want ErrSampleChanged", name, err)
		}
	}
}

// errorClass names what kind of failure err is, for comparing two readers
// that must fail alike.
func errorClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case errors.Is(err, stream.ErrBadFormat):
		return "format"
	case errors.Is(err, ErrNegativeWeight):
		return "negative"
	}
	return "other"
}

// negativeAt returns the sample position a negative-weight error names.
func negativeAt(t *testing.T, err error) int {
	t.Helper()
	_, rest, ok := strings.Cut(err.Error(), "sample edge ")
	num, _, _ := strings.Cut(rest, " ")
	i, perr := strconv.Atoi(num)
	if !ok || perr != nil {
		t.Fatalf("negative-weight error %q names no edge", err)
	}
	return i
}

// FuzzSampleFileStats: whatever bytes the sample file holds, and whatever
// the limit, the file source returns the statistics FromSample computes
// from what ReadEdges reads, or fails as it does. The one difference is
// where the file source stops first: it refuses the first negative weight
// it folds, where ReadEdges, which folds nothing, may still find a malformed
// record further on — so a refused weight must end a prefix ReadEdges reads.
func FuzzSampleFileStats(f *testing.F) {
	var bin bytes.Buffer
	if err := stream.WriteBinaryEdges(&bin, sample()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes(), uint16(0))
	f.Add(bin.Bytes(), uint16(2))
	f.Add(bin.Bytes()[:16+40], uint16(0))
	f.Add([]byte("# c\n1 2 3\n0 0\n1 5 0 9\n1 2\n"), uint16(0))
	f.Add([]byte("1 2 -5\n3 4\n"), uint16(1))
	f.Add([]byte("1 2 -5\nx\n"), uint16(0))
	f.Add([]byte("DESG\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00"), uint16(0))
	dir := f.TempDir()
	n := 0
	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		n++
		path := filepath.Join(dir, strconv.Itoa(n))
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(path)
		got, err := FromFile(path, int(limit))
		negative := func(e stream.Edge) bool { return e.Weight < 0 }
		if errorClass(err) == "negative" {
			i := negativeAt(t, err)
			prefix, perr := stream.ReadEdges(bytes.NewReader(data), i+1)
			if perr != nil || len(prefix) != i+1 || (limit > 0 && i >= int(limit)) || slices.IndexFunc(prefix, negative) != i {
				t.Fatalf("file source refused edge %d (%v), which is not the first negative weight of the sample: %d edges, %v", i, err, len(prefix), perr)
			}
			return
		}
		edges, rerr := stream.ReadEdges(bytes.NewReader(data), int(limit))
		if rerr == nil && slices.ContainsFunc(edges, negative) {
			t.Fatalf("file source accepted a sample with a negative weight: %v", err)
		}
		if errorClass(err) != errorClass(rerr) {
			t.Fatalf("file source: %v; ReadEdges: %d edges, %v", err, len(edges), rerr)
		}
		if err == nil {
			sameStats(t, got, FromSample(edges))
		}
	})
}
