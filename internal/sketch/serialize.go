package sketch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary serialization for CountMin sketches. One sketch is one record,
// little-endian and self-describing:
//
//	magic    uint32  'GSCM'
//	version  uint32
//	width    uint64
//	depth    uint64
//	seed     uint64
//	flags    uint64  (bit 0: conservative update)
//	total    uint64
//	cells    width*depth * uint32
//	crc32    uint32  (IEEE, over everything above)
//
// The hash family is reconstructed from the seed, so the stored state is
// complete. A Bank serializes as its shards' records back to back, so the
// layout in memory is not part of the format.

const (
	cmMagic = 0x4753434d // "GSCM"
	// cmVersion 2: the row-hash range reduction changed from mod-width to
	// Lemire multiply-shift, so counters written by version 1 live in
	// different cells — version-1 files must fail loudly, not load and
	// estimate garbage.
	cmVersion = 2

	flagConservative = 1 << 0
)

// ErrCorrupt reports a malformed or truncated serialized sketch.
var ErrCorrupt = fmt.Errorf("sketch: corrupt serialized data")

// cmHeaderBytes is the size of a record's fixed part, magic through total.
const cmHeaderBytes = 48

// ioBufferBytes is the size of the one buffer all records move through.
const ioBufferBytes = 64 << 10

// trustedCells is the largest arena a reader allocates on a header's word
// (16 MiB), and only once a valid record header is in hand; see readRecord.
const trustedCells = 1 << 22

// countingWriter counts the bytes its writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	k, err := cw.w.Write(p)
	cw.n += int64(k)
	return k, err
}

// writeRecords writes the sketches' records back to back through one buffer
// (a bank of thousands of small shards costs a handful of writes), encoding
// cells into its free space; bufio keeps the first write error for Flush.
func writeRecords(w io.Writer, sketches []CountMin) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriterSize(cw, ioBufferBytes)
	le := binary.LittleEndian
	scratch := make([]byte, 0, cmHeaderBytes)
	for i := range sketches {
		cm := &sketches[i]
		var flags uint64
		if cm.conservative {
			flags |= flagConservative
		}
		hdr := le.AppendUint32(le.AppendUint32(scratch, cmMagic), cmVersion)
		for _, v := range [...]uint64{uint64(cm.width), uint64(cm.depth), cm.seed, flags, uint64(*cm.total)} {
			hdr = le.AppendUint64(hdr, v)
		}
		crc := crc32.ChecksumIEEE(hdr)
		bw.Write(hdr)
		for cells := cm.cells; len(cells) > 0; {
			if bw.Available() < CellSize {
				if err := bw.Flush(); err != nil {
					return cw.n, err
				}
			}
			p := bw.AvailableBuffer()
			n := min(len(cells), cap(p)/CellSize)
			for _, c := range cells[:n] {
				p = le.AppendUint32(p, c)
			}
			crc = crc32.Update(crc, crc32.IEEETable, p)
			bw.Write(p)
			cells = cells[n:]
		}
		bw.Write(le.AppendUint32(scratch, crc)) // trailing CRC, not itself CRC'd
	}
	err := bw.Flush()
	return cw.n, err
}

// WriteTo serializes the sketch. It implements io.WriterTo.
func (cm *CountMin) WriteTo(w io.Writer) (int64, error) {
	return writeRecords(w, []CountMin{*cm})
}

// WriteTo serializes every shard in order, as their own WriteTo calls would.
func (b *Bank) WriteTo(w io.Writer) (int64, error) { return writeRecords(w, b.views) }

// record is what a CountMin record says beyond its dimensions.
type record struct {
	seed         uint64
	conservative bool
	total        int64
}

// readRecord reads one record that must be width×depth, through buf: it
// appends the cells to arena, decoding them out of buf, and verifies the
// checksum. It consumes exactly the record's bytes. Nothing is sized from
// the record's own header, and arena is allocated or grown only when it is
// full and cells are due — first to min(limit, trustedCells), then by
// doubling up to limit — so an arena within the trusted size is one
// allocation, never copied, and a larger one never holds much more than
// the stream has delivered.
func readRecord(r io.Reader, buf []byte, arena []uint32, width, depth, limit uint64) ([]uint32, record, error) {
	le := binary.LittleEndian
	corrupt := func(format string, args ...any) ([]uint32, record, error) {
		return nil, record{}, fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
	p := buf[:cmHeaderBytes]
	if _, err := io.ReadFull(r, p); err != nil {
		return corrupt("%v", err)
	}
	if magic, version := le.Uint32(p[0:]), le.Uint32(p[4:]); magic != cmMagic || version != cmVersion {
		return corrupt("bad magic %#x or unsupported version %d", magic, version)
	}
	if w, d := le.Uint64(p[8:]), le.Uint64(p[16:]); w != width || d != depth {
		return corrupt("record is %dx%d, layout says %dx%d", d, w, depth, width)
	}
	rec := record{
		seed:         le.Uint64(p[24:]),
		conservative: le.Uint64(p[32:])&flagConservative != 0,
		total:        int64(le.Uint64(p[40:])),
	}
	if rec.total < 0 {
		return corrupt("negative stream volume")
	}
	crc := crc32.ChecksumIEEE(p)
	for n := width * depth; n > 0; {
		if len(arena) == cap(arena) {
			grown := min(limit, max(2*uint64(cap(arena)), trustedCells))
			arena = append(make([]uint32, 0, grown), arena...)
		}
		k := min(n, uint64(cap(arena)-len(arena)), uint64(len(buf)/CellSize))
		p = buf[:k*CellSize]
		if _, err := io.ReadFull(r, p); err != nil {
			return corrupt("%v", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, p)
		for i := uint64(0); i < k; i++ {
			arena = append(arena, le.Uint32(p[i*CellSize:]))
		}
		n -= k
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return corrupt("missing checksum: %v", err)
	}
	if got := le.Uint32(buf); got != crc {
		return corrupt("checksum mismatch (stored %#x, computed %#x)", got, crc)
	}
	return arena, rec, nil
}

// ReadBank deserializes the records of a bank whose shape the caller
// already knows: len(widths) sketches of the given depth, record i exactly
// widths[i] wide, all agreeing on the conservative-update mode. Anything
// else is ErrCorrupt.
func ReadBank(r io.Reader, widths []int, depth int) (*Bank, error) {
	b, total, err := newBankTables(widths, depth)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	buf := make([]byte, ioBufferBytes)
	seeds := make([]uint64, len(widths))
	var cells []uint32
	for i, sp := range b.spans {
		var rec record
		if cells, rec, err = readRecord(r, buf, cells, sp.width, uint64(depth), total); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if i == 0 {
			b.conservative = rec.conservative
		} else if rec.conservative != b.conservative {
			return nil, fmt.Errorf("%w: shard %d disagrees on conservative update", ErrCorrupt, i)
		}
		seeds[i], b.totals[i] = rec.seed, rec.total
	}
	// The coefficient table is as large as the cells just read vouch for.
	b.bind(cells, seeds)
	return b, nil
}
