package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Edge-file formats.
//
// Text: one edge per line, "src dst [weight [time]]", '#' comments and
// blank lines skipped — the common exchange format for graph datasets.
//
// Binary: "GSED" magic, version, count, then count fixed 32-byte records
// (src, dst, weight, time as little-endian uint64/int64). Dense, seekable,
// and ~6x faster to load than text.

const (
	edgeMagic   = 0x47534544 // "GSED"
	edgeVersion = 1

	edgeHeaderBytes = 16
	edgeRecordBytes = 32
	// readChunk is how much of a binary edge file is decoded at a time.
	readChunk = 64 << 10
)

// ErrBadFormat reports an unparsable edge file.
var ErrBadFormat = errors.New("stream: bad edge file format")

// WriteTextEdges writes edges in text form: "src dst weight time".
func WriteTextEdges(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	for _, e := range edges {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.Src, e.Dst, e.Weight, e.Time); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTextEdges parses a text edge file. Missing weight defaults to 1,
// missing time to 0.
func ReadTextEdges(r io.Reader) ([]Edge, error) {
	return readAll(newTextScanner(r, 0))
}

// WriteBinaryEdges writes edges in the dense binary format.
func WriteBinaryEdges(w io.Writer, edges []Edge) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], edgeMagic)
	binary.LittleEndian.PutUint32(hdr[4:], edgeVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(edges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [32]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint64(rec[0:], e.Src)
		binary.LittleEndian.PutUint64(rec[8:], e.Dst)
		binary.LittleEndian.PutUint64(rec[16:], uint64(e.Weight))
		binary.LittleEndian.PutUint64(rec[24:], uint64(e.Time))
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinaryEdges parses the dense binary format.
func ReadBinaryEdges(r io.Reader) ([]Edge, error) {
	size := remaining(r)
	sc, err := newBinaryScanner(bufio.NewReaderSize(r, readChunk), size, 0)
	if err != nil {
		return nil, err
	}
	return readAll(sc)
}

// ChunkEdges is the most edges one EdgeScanner.Next call appends: one
// 64 KiB chunk of binary records.
const ChunkEdges = readChunk / edgeRecordBytes

// EdgeScanner decodes an edge stream in either format a chunk at a time, so
// a consumer that folds edges as they come holds one chunk, not the stream.
// It is the one decoder behind ReadEdges and its binary and text variants.
type EdgeScanner struct {
	br *bufio.Reader // binary: buffer of at least readChunk bytes
	// left is how many edges the scan may still yield: the header's count
	// (cut to the limit) for a binary stream, the limit or -1 (none) for
	// text. A binary stream whose length was known has had its count
	// checked against it, so there left is exactly what the scan yields.
	left  int
	known bool
	read  int // binary: records decoded so far

	text *bufio.Scanner // nil for a binary stream
	line int            // text lines consumed
}

// NewEdgeScanner reads r's header, telling the formats apart by the binary
// magic, and returns a scanner that stops after limit edges (0 = all)
// without reading the rest. A binary header is refused, before anything is
// allocated, when its count cannot be right: above 2³³, or — when r is a
// regular file or an in-memory reader, whose length is known — more records
// than the bytes present hold.
func NewEdgeScanner(r io.Reader, limit int) (*EdgeScanner, error) {
	size := remaining(r)
	br := bufio.NewReaderSize(r, readChunk)
	if magic, _ := br.Peek(4); len(magic) == 4 && binary.LittleEndian.Uint32(magic) == edgeMagic {
		return newBinaryScanner(br, size, limit)
	}
	return newTextScanner(br, limit), nil
}

// newBinaryScanner checks a binary header at the front of br; size is the
// stream's byte length when the caller could learn it, -1 otherwise.
func newBinaryScanner(br *bufio.Reader, size int64, limit int) (*EdgeScanner, error) {
	hdr, err := br.Peek(edgeHeaderBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != edgeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != edgeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	const maxEdges = 1 << 33
	if count > maxEdges {
		return nil, fmt.Errorf("%w: implausible edge count %d", ErrBadFormat, count)
	}
	if size >= 0 && count > uint64(max(size-edgeHeaderBytes, 0))/edgeRecordBytes {
		return nil, fmt.Errorf("%w: header counts %d edges, the %d bytes present hold fewer", ErrBadFormat, count, size)
	}
	_, _ = br.Discard(edgeHeaderBytes) // cannot fail: Peek buffered them
	if limit > 0 && count > uint64(limit) {
		count = uint64(limit)
	}
	return &EdgeScanner{br: br, left: int(count), known: size >= 0}, nil
}

func newTextScanner(r io.Reader, limit int) *EdgeScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	if limit <= 0 {
		limit = -1
	}
	return &EdgeScanner{left: limit, text: sc}
}

// Len returns how many edges the scan has yet to yield when that is known
// before they are read — a binary stream of known length — and -1
// otherwise.
func (s *EdgeScanner) Len() int {
	if s.text != nil || !s.known {
		return -1
	}
	return s.left
}

// Next appends the next edges of the stream to dst, at most ChunkEdges of
// them, and returns io.EOF, with nothing appended, once the stream or the
// limit is exhausted. A malformed record fails with ErrBadFormat; what dst
// then holds past its old length is to be discarded.
func (s *EdgeScanner) Next(dst []Edge) ([]Edge, error) {
	if s.text != nil {
		return s.nextText(dst)
	}
	if s.left == 0 {
		return dst, io.EOF
	}
	buf, err := s.br.Peek(min(s.left*edgeRecordBytes, readChunk))
	whole := len(buf) / edgeRecordBytes * edgeRecordBytes
	for rec := buf[:whole]; len(rec) > 0; rec = rec[edgeRecordBytes:] {
		dst = append(dst, Edge{
			Src:    binary.LittleEndian.Uint64(rec[0:]),
			Dst:    binary.LittleEndian.Uint64(rec[8:]),
			Weight: int64(binary.LittleEndian.Uint64(rec[16:])),
			Time:   int64(binary.LittleEndian.Uint64(rec[24:])),
		})
	}
	s.read += whole / edgeRecordBytes
	s.left -= whole / edgeRecordBytes
	if err != nil {
		if err == io.EOF && whole < len(buf) {
			err = io.ErrUnexpectedEOF
		}
		return dst, fmt.Errorf("%w: record %d: %v", ErrBadFormat, s.read, err)
	}
	_, _ = s.br.Discard(whole) // cannot fail: Peek buffered them
	return dst, nil
}

// nextText parses lines until a chunk of edges is appended, the limit is
// reached or the lines run out. Missing weight defaults to 1, missing time
// to 0; '#' comments and blank lines are skipped.
func (s *EdgeScanner) nextText(dst []Edge) ([]Edge, error) {
	n := 0
	for n < ChunkEdges && s.left != 0 {
		if !s.text.Scan() {
			if err := s.text.Err(); err != nil {
				return dst, err
			}
			break
		}
		s.line++
		line := strings.TrimSpace(s.text.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return dst, fmt.Errorf("%w: line %d: need at least src and dst", ErrBadFormat, s.line)
		}
		var e Edge
		var err error
		if e.Src, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return dst, fmt.Errorf("%w: line %d: src: %v", ErrBadFormat, s.line, err)
		}
		if e.Dst, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
			return dst, fmt.Errorf("%w: line %d: dst: %v", ErrBadFormat, s.line, err)
		}
		e.Weight = 1
		if len(fields) >= 3 {
			if e.Weight, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
				return dst, fmt.Errorf("%w: line %d: weight: %v", ErrBadFormat, s.line, err)
			}
		}
		if len(fields) >= 4 {
			if e.Time, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
				return dst, fmt.Errorf("%w: line %d: time: %v", ErrBadFormat, s.line, err)
			}
		}
		dst = append(dst, e)
		n++
		s.left--
	}
	if n == 0 {
		return dst, io.EOF
	}
	return dst, nil
}

// readAll drains sc into one slice. A binary stream of known length sizes
// it up front; otherwise it grows with the records that actually arrive, so
// a header's count alone never sizes an allocation.
func readAll(sc *EdgeScanner) ([]Edge, error) {
	n := sc.Len()
	if n < 0 {
		n = 0
		if sc.text == nil {
			n = min(sc.left, ChunkEdges)
		}
	}
	edges := make([]Edge, 0, n)
	for {
		var err error
		if edges, err = sc.Next(edges); err == io.EOF {
			return edges, nil
		} else if err != nil {
			return nil, err
		}
	}
}

// remaining returns how many bytes r still holds when that can be known
// without reading them — an in-memory reader, or a regular file — and -1
// otherwise.
func remaining(r io.Reader) int64 {
	switch v := r.(type) {
	case *bytes.Reader:
		return int64(v.Len())
	case *bytes.Buffer:
		return int64(v.Len())
	case *strings.Reader:
		return int64(v.Len())
	case *os.File:
		fi, err := v.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		pos, err := v.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		return fi.Size() - pos
	}
	return -1
}

// ReadEdges reads an edge stream in either format, telling them apart by
// the binary magic, and stops after limit edges (0 = all) without reading
// the rest.
func ReadEdges(r io.Reader, limit int) ([]Edge, error) {
	sc, err := NewEdgeScanner(r, limit)
	if err != nil {
		return nil, err
	}
	return readAll(sc)
}

// ReadEdgeFile is ReadEdges over the file at path: the one loader behind
// every command's -sample, -workload and -stream flag.
func ReadEdgeFile(path string, limit int) ([]Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadEdges(f, limit)
}

// CountingWriter counts bytes on their way to an io.Writer, so callers
// can report written sizes (or tell "error before the first byte" from a
// mid-stream failure) around APIs that do not return a count.
type CountingWriter struct {
	W io.Writer
	N int64
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	return n, err
}
