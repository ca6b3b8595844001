package stream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleEdges() []Edge {
	return []Edge{
		{Src: 1, Dst: 2, Weight: 3, Time: 100},
		{Src: 0, Dst: 0, Weight: 1, Time: 0},
		{Src: 1<<63 + 5, Dst: 42, Weight: 1 << 40, Time: -1},
	}
}

func TestTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTextEdges(&buf, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTextEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEdges()
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestTextDefaultsAndComments(t *testing.T) {
	in := `# comment line
1 2

3 4 9
5 6 7 8
`
	got, err := ReadTextEdges(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{
		{Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 9},
		{Src: 5, Dst: 6, Weight: 7, Time: 8},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestTextMalformed(t *testing.T) {
	cases := []string{
		"1\n",
		"a b\n",
		"1 b\n",
		"1 2 x\n",
		"1 2 3 y\n",
	}
	for _, in := range cases {
		if _, err := ReadTextEdges(strings.NewReader(in)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: error = %v, want ErrBadFormat", in, err)
		}
	}
}

// TestTextLineTooLong: a line longer than a text stream may hold fails like
// any other malformed line — ErrBadFormat, naming the line — not with the
// line scanner's bare error.
func TestTextLineTooLong(t *testing.T) {
	in := "1 2\n3 4 " + strings.Repeat("5", maxTextLine) + "\n6 7\n"
	for name, read := range map[string]func() ([]Edge, error){
		"ReadTextEdges": func() ([]Edge, error) { return ReadTextEdges(strings.NewReader(in)) },
		"ReadEdges":     func() ([]Edge, error) { return ReadEdges(strings.NewReader(in), 0) },
	} {
		if _, err := read(); !errors.Is(err, ErrBadFormat) || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%s: error %v, want ErrBadFormat naming line 2", name, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEdges()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("edge %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(srcs, dsts []uint64) bool {
		n := len(srcs)
		if len(dsts) < n {
			n = len(dsts)
		}
		edges := make([]Edge, n)
		for i := 0; i < n; i++ {
			edges[i] = Edge{Src: srcs[i], Dst: dsts[i], Weight: int64(i), Time: int64(i * 3)}
		}
		var buf bytes.Buffer
		if err := WriteBinaryEdges(&buf, edges); err != nil {
			return false
		}
		got, err := ReadBinaryEdges(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBinaryMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, sampleEdges()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadBinaryEdges(bytes.NewReader(data[:10])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated header: %v", err)
	}
	if _, err := ReadBinaryEdges(bytes.NewReader(data[:20])); !errors.Is(err, ErrBadFormat) {
		t.Errorf("truncated records: %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ReadBinaryEdges(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("bad magic: %v", err)
	}
	// Implausible count.
	huge := append([]byte(nil), data[:16]...)
	for i := 8; i < 16; i++ {
		huge[i] = 0xFF
	}
	if _, err := ReadBinaryEdges(bytes.NewReader(huge)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("implausible count: %v", err)
	}
}

// binaryFile renders edges in the binary format, with the header's count
// overwritten when forged ≥ 0.
func binaryFile(t testing.TB, edges []Edge, forged int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if forged >= 0 {
		binary.LittleEndian.PutUint64(data[8:], uint64(forged))
	}
	return data
}

func manyEdges(n int) []Edge {
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{Src: uint64(i) * 7, Dst: uint64(i) % 13, Weight: int64(i%5) - 1, Time: int64(i)}
	}
	return edges
}

// streamOnly hides everything about a reader but Read, as a pipe or a
// socket would: the binary reader cannot learn the stream's length.
type streamOnly struct{ r io.Reader }

func (s streamOnly) Read(p []byte) (int, error) { return s.r.Read(p) }

// TestBinaryForgedCountDoesNotAllocate is the regression test for the
// 16-byte file that killed the process: magic, version 1 and a count of 2³³
// asked make for 256 GiB, which no error return survives. The header's word
// must size nothing — whether the reader's length is known (a bytes.Reader,
// a regular file: refused before any allocation) or not (a stream: the
// slice grows with the records that arrive, and none do).
func TestBinaryForgedCountDoesNotAllocate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "forged.bin")
	for _, forged := range []int64{1 << 33, 1 << 32, 1 << 20, 4} {
		data := binaryFile(t, sampleEdges(), forged) // 3 records present
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		for name, read := range map[string]func() ([]Edge, error){
			"bytes.Reader": func() ([]Edge, error) { return ReadBinaryEdges(bytes.NewReader(data)) },
			"stream":       func() ([]Edge, error) { return ReadBinaryEdges(streamOnly{bytes.NewReader(data)}) },
			"header only":  func() ([]Edge, error) { return ReadBinaryEdges(streamOnly{bytes.NewReader(data[:16])}) },
			"ReadEdges":    func() ([]Edge, error) { return ReadEdges(streamOnly{bytes.NewReader(data)}, 0) },
			"ReadEdgeFile": func() ([]Edge, error) { return ReadEdgeFile(path, 0) },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := read()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadFormat) {
				t.Errorf("count %d via %s: error %v, want ErrBadFormat", forged, name, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("count %d via %s: allocated %d bytes for a %d-byte input", forged, name, grew, len(data))
			}
		}
	}
}

// TestReadEdgesStopsAtLimit checks that a limit is passed down to the
// reader instead of truncating after a full read: the edges are the file's
// prefix, and what is left unread of a file many chunks long is all but the
// chunks the prefix needed.
func TestReadEdgesStopsAtLimit(t *testing.T) {
	edges := manyEdges(50000) // 1.6 MB binary
	var text bytes.Buffer
	if err := WriteTextEdges(&text, edges); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"binary": binaryFile(t, edges, -1), "text": text.Bytes()} {
		for _, limit := range []int{0, 1, 2047, 2048, 2049, 49999, 50000, 50001} {
			r := bytes.NewReader(data)
			got, err := ReadEdges(r, limit)
			if err != nil {
				t.Fatalf("%s limit %d: %v", name, limit, err)
			}
			want := edges
			if limit > 0 && limit < len(edges) {
				want = edges[:limit]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s limit %d: got %d edges, want the first %d", name, limit, len(got), len(want))
			}
			// Both formats are under 40 bytes an edge here; the reader may
			// run ahead by its buffers (one chunk, plus the scanner's).
			if read := len(data) - r.Len(); limit > 0 && read > 40*limit+3*readChunk {
				t.Errorf("%s limit %d: read %d of %d bytes", name, limit, read, len(data))
			}
		}
	}
}

// TestReadEdgeFileTypedErrors: what the four commands load through —
// a missing file, a truncated binary file, a binary file cut mid-record, a
// text file with a bad line — each fails with an error a caller can match,
// and both formats load by content, whatever the file is called.
func TestReadEdgeFileTypedErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bin := binaryFile(t, sampleEdges(), -1)
	for name, tc := range map[string]struct {
		path string
		want error
	}{
		"missing":         {filepath.Join(dir, "nope"), fs.ErrNotExist},
		"truncated":       {write("a.bin", bin[:16+32]), ErrBadFormat},
		"mid-record":      {write("b.bin", bin[:16+40]), ErrBadFormat},
		"short header":    {write("c.bin", bin[:9]), ErrBadFormat},
		"bad version":     {write("d.bin", append([]byte("DESG\x02\x00\x00\x00"), bin[8:]...)), ErrBadFormat},
		"bad text":        {write("e.txt", []byte("1 2 3\nnot an edge\n")), ErrBadFormat},
		"binary as .txt":  {write("f.txt", bin), nil},
		"text as .bin":    {write("g.bin", []byte("# c\n1 2 3 100\n0 0 1 0\n9223372036854775813 42 1099511627776 -1\n")), nil},
		"empty file":      {write("h.bin", nil), nil},
		"zero-count file": {write("i.bin", binaryFile(t, nil, -1)), nil},
	} {
		got, err := ReadEdgeFile(tc.path, 0)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v, want %v", name, err, tc.want)
		}
		if tc.want == nil && !strings.Contains(name, "empty") && !strings.Contains(name, "zero") && !slices.Equal(got, sampleEdges()) {
			t.Errorf("%s: loaded %+v", name, got)
		}
	}
}

// FuzzReadBinaryEdges: whatever the bytes, the reader returns edges or
// ErrBadFormat — never a panic, never an allocation sized by the header
// alone — and says the same whether or not it can see the input's length.
// What it accepts re-encodes to the input's own prefix.
func FuzzReadBinaryEdges(f *testing.F) {
	valid := binaryFile(f, sampleEdges(), -1)
	f.Add(valid)
	f.Add(binaryFile(f, sampleEdges(), 1<<33)) // forged count
	f.Add(valid[:16+32+7])                     // truncated record
	f.Add(binaryFile(f, nil, -1))              // zero count
	f.Add([]byte("1 2 3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		known, errKnown := ReadBinaryEdges(bytes.NewReader(data))
		unknown, errUnknown := ReadBinaryEdges(streamOnly{bytes.NewReader(data)})
		if (errKnown == nil) != (errUnknown == nil) || !slices.Equal(known, unknown) {
			t.Fatalf("sized read: %d edges, %v; unsized read: %d edges, %v", len(known), errKnown, len(unknown), errUnknown)
		}
		if errKnown != nil {
			if !errors.Is(errKnown, ErrBadFormat) || !errors.Is(errUnknown, ErrBadFormat) {
				t.Fatalf("untyped error: %v / %v", errKnown, errUnknown)
			}
			return
		}
		if want := binary.LittleEndian.Uint64(data[8:]); uint64(len(known)) != want {
			t.Fatalf("header counts %d edges, read %d", want, len(known))
		}
		var out bytes.Buffer
		if err := WriteBinaryEdges(&out, known); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatal("accepted edges do not re-encode to the input's prefix")
		}
		limited, err := ReadEdges(bytes.NewReader(data), 2)
		if err != nil || !slices.Equal(limited, known[:min(2, len(known))]) {
			t.Fatalf("limit 2: %d edges, %v", len(limited), err)
		}
	})
}
