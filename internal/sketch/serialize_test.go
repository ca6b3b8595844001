package sketch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"github.com/graphstream/gsketch/internal/hashutil"
)

func buildPopulated(t *testing.T, conservative bool) *CountMin {
	t.Helper()
	cm, err := NewCountMin(300, 4, 1234)
	if err != nil {
		t.Fatal(err)
	}
	cm.SetConservative(conservative)
	rng := hashutil.NewRNG(1)
	for i := 0; i < 10000; i++ {
		cm.Update(rng.Uint64()%700, int64(i%5)+1)
	}
	return cm
}

// readLike reads back one record that should hold a sketch of cm's shape.
func readLike(data []byte, cm *CountMin) (*CountMin, error) {
	bank, err := ReadBank(bytes.NewReader(data), []int{cm.Width()}, cm.Depth())
	if err != nil {
		return nil, err
	}
	return bank.Sketch(0), nil
}

func TestCountMinSerializeRoundTrip(t *testing.T) {
	for _, conservative := range []bool{false, true} {
		cm := buildPopulated(t, conservative)
		var buf bytes.Buffer
		if _, err := cm.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := readLike(buf.Bytes(), cm)
		if err != nil {
			t.Fatal(err)
		}
		if got.Width() != cm.Width() || got.Depth() != cm.Depth() || got.Seed() != cm.Seed() {
			t.Fatal("dimensions not preserved")
		}
		if got.Count() != cm.Count() {
			t.Fatalf("count %d != %d", got.Count(), cm.Count())
		}
		for k := uint64(0); k < 700; k++ {
			if got.Estimate(k) != cm.Estimate(k) {
				t.Fatalf("key %d: %d != %d", k, got.Estimate(k), cm.Estimate(k))
			}
		}
	}
}

func TestCountMinSerializeDetectsCorruption(t *testing.T) {
	cm := buildPopulated(t, false)
	var buf bytes.Buffer
	if _, err := cm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	// Flip one byte in the cell region.
	corrupted := append([]byte(nil), pristine...)
	corrupted[len(corrupted)/2] ^= 0xFF
	if _, err := readLike(corrupted, cm); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bit flip not detected: %v", err)
	}

	// Truncate.
	if _, err := readLike(pristine[:len(pristine)/3], cm); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation not detected: %v", err)
	}

	// Bad magic.
	bad := append([]byte(nil), pristine...)
	bad[0] ^= 0xFF
	if _, err := readLike(bad, cm); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic not detected: %v", err)
	}

	// Empty input.
	if _, err := readLike(nil, cm); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty input not detected: %v", err)
	}
}

func TestCountMinSerializeRejectsImplausibleDims(t *testing.T) {
	cm := buildPopulated(t, false)
	var buf bytes.Buffer
	if _, err := cm.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Overwrite the width field (offset 8: after magic+version) with a
	// huge value; the reader must reject before allocating.
	for i := 8; i < 16; i++ {
		data[i] = 0xFF
	}
	if _, err := readLike(data, cm); !errors.Is(err, ErrCorrupt) {
		t.Errorf("implausible dimensions: err = %v, want ErrCorrupt", err)
	}
}

// allocatedBy reports the bytes fn allocates, freed or not.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedRecord is a well-formed CountMin record header, claiming any
// dimensions, followed by the given payload.
func forgedRecord(width, depth uint64, payload ...byte) []byte {
	rec := make([]byte, cmHeaderBytes, cmHeaderBytes+len(payload))
	binary.LittleEndian.PutUint32(rec[0:], cmMagic)
	binary.LittleEndian.PutUint32(rec[4:], cmVersion)
	binary.LittleEndian.PutUint64(rec[8:], width)
	binary.LittleEndian.PutUint64(rec[16:], depth)
	return append(rec, payload...)
}

// TestReadBankDoesNotTrustHeaders: a layout and record header that claim
// gigabytes of cells the stream does not deliver are corrupt, and cost no
// more than the trusted first allocation.
func TestReadBankDoesNotTrustHeaders(t *testing.T) {
	const bound = trustedCells*CellSize + 1<<20
	forged := forgedRecord(1<<31, 5, 1, 2, 3)
	var err error
	if got := allocatedBy(func() { _, err = ReadBank(bytes.NewReader(forged), []int{1 << 31}, 5) }); got > bound {
		t.Errorf("ReadBank allocated %d bytes on a layout its stream does not back", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadBank on a stream that ends early: %v", err)
	}
	// Nothing at all is allocated for cells before a record header checks
	// out against the layout.
	if got := allocatedBy(func() { _, err = ReadBank(bytes.NewReader(forged[:40]), []int{1 << 31}, 5) }); got > 1<<20 {
		t.Errorf("ReadBank allocated %d bytes before reading a record header", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("ReadBank on a truncated header: %v", err)
	}
}

// TestReadBankChecksRecordsAgainstLayout: every record must be the sketch
// the caller's layout says it is.
func TestReadBankChecksRecordsAgainstLayout(t *testing.T) {
	widths := []int{7, 300, 2}
	bank, err := NewBank(widths, 4, []uint64{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	bank.UpdateRouted([]int32{0, 1, 1, 2}, []uint64{5, 6, 7, 8}, []int64{1, 2, 3, 4})
	data := bankBytes(t, bank)

	for name, tc := range map[string]struct {
		widths []int
		depth  int
	}{
		"narrower shard": {[]int{7, 299, 2}, 4},
		"other depth":    {widths, 5},
		"one shard more": {[]int{7, 300, 2, 2}, 4},
		"no shards":      {nil, 4},
	} {
		if _, err := ReadBank(bytes.NewReader(data), tc.widths, tc.depth); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-9] ^= 0xFF // a cell of the last shard
	if _, err := ReadBank(bytes.NewReader(flipped), widths, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("cell corruption: err = %v, want ErrCorrupt", err)
	}
	// Shards written in different update modes never came from one bank:
	// splice the first record of a conservative twin in front of the rest.
	twin, err := NewBank(widths, 4, []uint64{1, 2, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	first := cmHeaderBytes + widths[0]*4*CellSize + 4
	mixed := append(bankBytes(t, twin)[:first:first], data[first:]...)
	if _, err := ReadBank(bytes.NewReader(mixed), widths, 4); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mixed update modes: err = %v, want ErrCorrupt", err)
	}
	// The reader consumes the records and nothing after them.
	r := bytes.NewReader(append(append([]byte(nil), data...), "tail"...))
	if _, err := ReadBank(r, widths, 4); err != nil {
		t.Fatal(err)
	}
	if r.Len() != len("tail") {
		t.Errorf("ReadBank left %d bytes unread, want %d", r.Len(), len("tail"))
	}
}

// TestReadBankGrowsPastTrustedSize reads an arena larger than the reader
// allocates up front, across shard and buffer boundaries.
func TestReadBankGrowsPastTrustedSize(t *testing.T) {
	widths := []int{3, trustedCells/2 + 11, 5, trustedCells / 4}
	bank, err := NewBank(widths, 2, []uint64{1, 2, 3, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := hashutil.NewRNG(8)
	for i := 0; i < 5000; i++ {
		bank.UpdateRouted([]int32{int32(i % 4)}, []uint64{rng.Uint64()}, []int64{int64(i%9) + 1})
	}
	data := bankBytes(t, bank)
	got, err := ReadBank(bytes.NewReader(data), widths, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bankBytes(t, got), data) {
		t.Fatal("a bank larger than the trusted size did not survive a round trip")
	}
	if cap(got.cells) != len(got.cells) {
		t.Errorf("arena capacity %d for %d cells", cap(got.cells), len(got.cells))
	}
}

// failAfter is a writer that accepts n bytes and then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteToReportsWriteErrors: a failing writer surfaces at whichever
// flush hits it, with the bytes that did go out.
func TestWriteToReportsWriteErrors(t *testing.T) {
	bank, err := NewBank([]int{40_000, 3, 40_000}, 2, []uint64{1, 2, 3}, false)
	if err != nil {
		t.Fatal(err)
	}
	size := len(bankBytes(t, bank))
	for _, room := range []int{0, 100, ioBufferBytes + 5, size - 1} {
		n, err := bank.WriteTo(&failAfter{n: room})
		if err == nil || n != int64(room) {
			t.Errorf("bank, room for %d bytes: wrote %d, err %v", room, n, err)
		}
		n, err = bank.Sketch(0).WriteTo(&failAfter{n: min(room, 1000)})
		if err == nil || n != int64(min(room, 1000)) {
			t.Errorf("sketch, room for %d bytes: wrote %d, err %v", min(room, 1000), n, err)
		}
	}
}
