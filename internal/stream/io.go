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
func ReadTextEdges(r io.Reader) ([]Edge, error) { return readTextEdges(r, 0) }

// readTextEdges is ReadTextEdges stopping after limit edges (0 = all).
func readTextEdges(r io.Reader, limit int) ([]Edge, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var edges []Edge
	lineNo := 0
	for (limit <= 0 || len(edges) < limit) && sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("%w: line %d: need at least src and dst", ErrBadFormat, lineNo)
		}
		var e Edge
		var err error
		if e.Src, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("%w: line %d: src: %v", ErrBadFormat, lineNo, err)
		}
		if e.Dst, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("%w: line %d: dst: %v", ErrBadFormat, lineNo, err)
		}
		e.Weight = 1
		if len(fields) >= 3 {
			if e.Weight, err = strconv.ParseInt(fields[2], 10, 64); err != nil {
				return nil, fmt.Errorf("%w: line %d: weight: %v", ErrBadFormat, lineNo, err)
			}
		}
		if len(fields) >= 4 {
			if e.Time, err = strconv.ParseInt(fields[3], 10, 64); err != nil {
				return nil, fmt.Errorf("%w: line %d: time: %v", ErrBadFormat, lineNo, err)
			}
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return edges, nil
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
	return readBinaryEdges(bufio.NewReaderSize(r, readChunk), size, 0)
}

// readBinaryEdges decodes a binary edge stream out of br's own buffer, a
// chunk of records at a time, stopping after limit edges (0 = all). size is
// the byte length of the stream when the caller could learn it (-1
// otherwise): a header whose count does not fit in it is refused before
// anything is allocated, and without it the slice grows with the records
// that actually arrive — the header alone never sizes an allocation. br's
// buffer must hold readChunk bytes.
func readBinaryEdges(br *bufio.Reader, size int64, limit int) ([]Edge, error) {
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
	n := int(count)
	presize := n
	if size < 0 {
		presize = min(n, readChunk/edgeRecordBytes)
	}
	edges := make([]Edge, 0, presize)
	for len(edges) < n {
		buf, err := br.Peek(min((n-len(edges))*edgeRecordBytes, readChunk))
		whole := len(buf) / edgeRecordBytes * edgeRecordBytes
		for rec := buf[:whole]; len(rec) > 0; rec = rec[edgeRecordBytes:] {
			edges = append(edges, Edge{
				Src:    binary.LittleEndian.Uint64(rec[0:]),
				Dst:    binary.LittleEndian.Uint64(rec[8:]),
				Weight: int64(binary.LittleEndian.Uint64(rec[16:])),
				Time:   int64(binary.LittleEndian.Uint64(rec[24:])),
			})
		}
		if err != nil {
			if err == io.EOF && whole < len(buf) {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("%w: record %d: %v", ErrBadFormat, len(edges), err)
		}
		_, _ = br.Discard(whole) // cannot fail: Peek buffered them
	}
	return edges, nil
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
	size := remaining(r)
	br := bufio.NewReaderSize(r, readChunk)
	if magic, _ := br.Peek(4); len(magic) == 4 && binary.LittleEndian.Uint32(magic) == edgeMagic {
		return readBinaryEdges(br, size, limit)
	}
	return readTextEdges(br, limit)
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
