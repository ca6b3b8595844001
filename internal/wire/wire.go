package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Version is the protocol version this package speaks.
const Version = 2

// Frame types.
const (
	TypeIngest   = 0x01 // edge batch → TypeAck
	TypeQuery    = 0x02 // query batch → TypeResults
	TypeAck      = 0x03 // ingest reply: accepted/rejected counts
	TypeResults  = 0x04 // query reply: one result record per query
	TypeError    = 0x05 // server fault; the connection closes after it
	TypeFlush    = 0x06 // drain request → TypeFlushAck
	TypeFlushAck = 0x07 // drain completed

	// Ping is a state-free health probe.
	TypePing = 0x08 // health probe → TypePong
	TypePong = 0x09 // probe reply: live server gauges

	// 0x0A–0x0D are reserved: they carried a snapshot save/restore pair
	// that no client sends any more. The decoder rejects them.

	// Multi-tenant extension (PR 9). A connection to a tenant-mode server
	// starts unbound; TenantSelect scopes every later frame on the
	// connection to the named tenant. Re-selecting switches tenants.
	TypeTenantSelect = 0x0E // bind the connection to a tenant → TypeTenantAck
	TypeTenantAck    = 0x0F // tenant selected
)

// reservedLo..reservedHi is the retired frame-type range.
const reservedLo, reservedHi = 0x0A, 0x0D

// Record widths and header size, in bytes.
const (
	HeaderSize = 8
	EdgeSize   = 32
	QuerySize  = 16
	ResultSize = 24
	AckSize    = 8
	PongSize   = 16
)

// resultsHeaderSize is the TypeResults batch header ahead of the records:
// stream_total i64, confidence f64.
const resultsHeaderSize = 16

// MaxFrameBytes is the default payload bound: frames claiming more are
// rejected before any allocation. 16 MiB holds half a million edges.
const MaxFrameBytes = 16 << 20

// Error codes carried by TypeError frames.
const (
	CodeBadFrame    = 1 // unparseable or malformed frame
	CodeUnsupported = 2 // frame type the server does not serve
	CodeClosed      = 3 // server is shutting down
	CodeInternal    = 4 // serving failure (drain timeout, ...)
	CodeNotFound    = 6 // named tenant does not exist
	// 5 is reserved: it reported an unreachable cluster shard.
)

// Typed decode errors, matched with errors.Is. Truncated frames surface as
// io.ErrUnexpectedEOF (a clean EOF between frames is io.EOF).
var (
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrUnknownType   = errors.New("wire: unknown frame type")
	ErrBadHeader     = errors.New("wire: malformed frame header")
	ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")
	ErrBadPayload    = errors.New("wire: malformed frame payload")
)

// Frame is one decoded frame. Payload aliases the decoder's internal
// buffer and is only valid until the next Next call.
type Frame struct {
	Type    byte
	Payload []byte
}

// Decoder reads frames from a byte stream. It is not safe for concurrent
// use. The zero value is unusable; construct with NewDecoder.
type Decoder struct {
	r   io.Reader
	max uint32
	hdr [HeaderSize]byte
	buf []byte
}

// NewDecoder wraps r with the default frame bound. Readers that are not
// already buffered should be wrapped in a bufio.Reader by the caller.
func NewDecoder(r io.Reader) *Decoder { return NewDecoderSize(r, MaxFrameBytes) }

// NewDecoderSize wraps r with an explicit payload bound.
func NewDecoderSize(r io.Reader, max int) *Decoder {
	if max < 0 || max > math.MaxUint32 {
		max = math.MaxUint32
	}
	return &Decoder{r: r, max: uint32(max)}
}

// Next reads one frame. The returned payload is valid until the next call.
// A clean end of stream between frames returns io.EOF; a stream cut inside
// a frame returns io.ErrUnexpectedEOF.
func (d *Decoder) Next() (Frame, error) {
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Frame{}, io.EOF
		}
		return Frame{}, io.ErrUnexpectedEOF
	}
	if d.hdr[0] != Version {
		return Frame{}, fmt.Errorf("%w: %d", ErrBadVersion, d.hdr[0])
	}
	typ := d.hdr[1]
	if typ < TypeIngest || typ > TypeTenantAck || (typ >= reservedLo && typ <= reservedHi) {
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrUnknownType, typ)
	}
	if d.hdr[2] != 0 || d.hdr[3] != 0 {
		return Frame{}, fmt.Errorf("%w: nonzero reserved bytes", ErrBadHeader)
	}
	n := binary.LittleEndian.Uint32(d.hdr[4:])
	if n > d.max {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, d.max)
	}
	if uint32(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	d.buf = d.buf[:n]
	if _, err := io.ReadFull(d.r, d.buf); err != nil {
		return Frame{}, io.ErrUnexpectedEOF
	}
	return Frame{Type: typ, Payload: d.buf}, nil
}

// appendFrame grows dst once by a frame of n payload bytes, writes the
// 8-byte header in place, and returns the extended dst with the payload
// slice inside it, which the caller fills — every byte of it, since the
// spare capacity of a reused dst still holds old ones. Records are written
// straight into dst: building each in a stack array and appending it costs
// a memmove per record, which was 9.5 % of server CPU on 256-edge frames.
func appendFrame(dst []byte, typ byte, n int) (frame, payload []byte) {
	dst = appendHeader(slices.Grow(dst, HeaderSize+n), typ, n)
	off := len(dst)
	dst = dst[:off+n]
	return dst, dst[off:]
}

// appendHeader appends an 8-byte frame header for a payload of length n.
func appendHeader(dst []byte, typ byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, Version, typ, 0, 0), uint32(n))
}

// AppendIngest appends a TypeIngest frame carrying edges.
func AppendIngest(dst []byte, edges []stream.Edge) []byte {
	dst, p := appendFrame(dst, TypeIngest, len(edges)*EdgeSize)
	for _, e := range edges {
		binary.LittleEndian.PutUint64(p[0:], e.Src)
		binary.LittleEndian.PutUint64(p[8:], e.Dst)
		binary.LittleEndian.PutUint64(p[16:], uint64(e.Weight))
		binary.LittleEndian.PutUint64(p[24:], uint64(e.Time))
		p = p[EdgeSize:]
	}
	return dst
}

// AppendQuery appends a TypeQuery frame carrying qs.
func AppendQuery(dst []byte, qs []core.EdgeQuery) []byte {
	dst, p := appendFrame(dst, TypeQuery, len(qs)*QuerySize)
	for _, q := range qs {
		binary.LittleEndian.PutUint64(p[0:], q.Src)
		binary.LittleEndian.PutUint64(p[8:], q.Dst)
		p = p[QuerySize:]
	}
	return dst
}

// AppendResults appends a TypeResults frame carrying rs. The stream total N
// and the confidence 1−e^(−d) go once, in a batch header taken from rs[0]
// (zeros for an empty batch), so every result of rs must carry the same two
// values — as every estimator an Engine serves answers a batch: N is read
// once per batch, and partitioning divides width only, not d (§3.2, §4.1).
func AppendResults(dst []byte, rs []core.Result) []byte {
	dst, p := appendFrame(dst, TypeResults, resultsHeaderSize+len(rs)*ResultSize)
	var total int64
	var conf float64
	if len(rs) > 0 {
		total, conf = rs[0].StreamTotal, rs[0].Confidence
	}
	binary.LittleEndian.PutUint64(p[0:], uint64(total))
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(conf))
	p = p[resultsHeaderSize:]
	for i := range rs {
		r := &rs[i] // ranging by value would copy each 48-byte Result
		binary.LittleEndian.PutUint64(p[0:], uint64(r.Estimate))
		binary.LittleEndian.PutUint64(p[8:], math.Float64bits(r.ErrorBound))
		binary.LittleEndian.PutUint32(p[16:], uint32(int32(r.Partition)))
		var flags uint32
		if r.Outlier {
			flags = 1
		}
		binary.LittleEndian.PutUint32(p[20:], flags) // flags byte, three pad zeros
		p = p[ResultSize:]
	}
	return dst
}

// AppendAck appends a TypeAck frame.
func AppendAck(dst []byte, accepted, rejected int) []byte {
	dst, p := appendFrame(dst, TypeAck, AckSize)
	binary.LittleEndian.PutUint32(p[0:], uint32(accepted))
	binary.LittleEndian.PutUint32(p[4:], uint32(rejected))
	return dst
}

// AppendError appends a TypeError frame.
func AppendError(dst []byte, code uint16, msg string) []byte {
	dst, p := appendFrame(dst, TypeError, 2+len(msg))
	binary.LittleEndian.PutUint16(p, code)
	copy(p[2:], msg)
	return dst
}

// AppendFlush appends a TypeFlush frame.
func AppendFlush(dst []byte) []byte { return appendHeader(dst, TypeFlush, 0) }

// AppendFlushAck appends a TypeFlushAck frame.
func AppendFlushAck(dst []byte) []byte { return appendHeader(dst, TypeFlushAck, 0) }

// DecodeEdges appends the edges of a TypeIngest payload to dst. A negative
// weight refuses the whole frame with ErrBadPayload (the sketches count in
// the cash-register model: frequencies only grow); dst then holds the edges
// before it and is to be discarded.
func DecodeEdges(dst []stream.Edge, payload []byte) ([]stream.Edge, error) {
	if len(payload)%EdgeSize != 0 {
		return dst, fmt.Errorf("%w: ingest payload %d bytes is not a multiple of %d", ErrBadPayload, len(payload), EdgeSize)
	}
	for off := 0; off < len(payload); off += EdgeSize {
		rec := payload[off : off+EdgeSize]
		e := stream.Edge{
			Src:    binary.LittleEndian.Uint64(rec[0:]),
			Dst:    binary.LittleEndian.Uint64(rec[8:]),
			Weight: int64(binary.LittleEndian.Uint64(rec[16:])),
			Time:   int64(binary.LittleEndian.Uint64(rec[24:])),
		}
		if e.Weight < 0 {
			return dst, fmt.Errorf("%w: edge %d: negative weight", ErrBadPayload, off/EdgeSize)
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// DecodeQueries appends the queries of a TypeQuery payload to dst.
func DecodeQueries(dst []core.EdgeQuery, payload []byte) ([]core.EdgeQuery, error) {
	if len(payload)%QuerySize != 0 {
		return dst, fmt.Errorf("%w: query payload %d bytes is not a multiple of %d", ErrBadPayload, len(payload), QuerySize)
	}
	for off := 0; off < len(payload); off += QuerySize {
		rec := payload[off : off+QuerySize]
		dst = append(dst, core.EdgeQuery{
			Src: binary.LittleEndian.Uint64(rec[0:]),
			Dst: binary.LittleEndian.Uint64(rec[8:]),
		})
	}
	return dst, nil
}

// DecodeResults appends the results of a TypeResults payload to dst, each
// carrying the batch header's stream total and confidence. It accepts only
// what AppendResults writes: a payload shorter than the header or ragged
// after it, a flag bit other than outlier, a non-zero pad byte, or a
// non-zero header before no records is refused with ErrBadPayload, and dst
// then holds the results before the bad record and is to be discarded.
func DecodeResults(dst []core.Result, payload []byte) ([]core.Result, error) {
	if len(payload) < resultsHeaderSize || (len(payload)-resultsHeaderSize)%ResultSize != 0 {
		return dst, fmt.Errorf("%w: results payload %d bytes is not a %d-byte header and %d-byte records", ErrBadPayload, len(payload), resultsHeaderSize, ResultSize)
	}
	total := int64(binary.LittleEndian.Uint64(payload[0:]))
	confBits := binary.LittleEndian.Uint64(payload[8:])
	recs := payload[resultsHeaderSize:]
	if len(recs) == 0 && (total != 0 || confBits != 0) {
		return dst, fmt.Errorf("%w: empty results batch with a non-zero header", ErrBadPayload)
	}
	conf := math.Float64frombits(confBits)
	base := len(dst)
	dst = slices.Grow(dst, len(recs)/ResultSize)[:base+len(recs)/ResultSize]
	out := dst[base:]
	for i := range out {
		rec := recs[i*ResultSize : i*ResultSize+ResultSize]
		if binary.LittleEndian.Uint32(rec[20:]) > 1 {
			return dst[:base+i], fmt.Errorf("%w: result %d: flags and pad % x, want bit 0 and zeros", ErrBadPayload, i, rec[20:])
		}
		// Field by field: a composite literal is built on the stack and
		// copied in, which measured 2.5× the time per record.
		r := &out[i]
		r.Estimate = int64(binary.LittleEndian.Uint64(rec[0:]))
		r.Partition = int(int32(binary.LittleEndian.Uint32(rec[16:])))
		r.Outlier = rec[20] == 1
		r.ErrorBound = math.Float64frombits(binary.LittleEndian.Uint64(rec[8:]))
		r.Confidence = conf
		r.StreamTotal = total
	}
	return dst, nil
}

// DecodeAck unpacks a TypeAck payload.
func DecodeAck(payload []byte) (accepted, rejected int, err error) {
	if len(payload) != AckSize {
		return 0, 0, fmt.Errorf("%w: ack payload %d bytes, want %d", ErrBadPayload, len(payload), AckSize)
	}
	return int(binary.LittleEndian.Uint32(payload[0:])),
		int(binary.LittleEndian.Uint32(payload[4:])), nil
}

// DecodeError unpacks a TypeError payload.
func DecodeError(payload []byte) (code uint16, msg string, err error) {
	if len(payload) < 2 {
		return 0, "", fmt.Errorf("%w: error payload %d bytes, want >= 2", ErrBadPayload, len(payload))
	}
	return binary.LittleEndian.Uint16(payload), string(payload[2:]), nil
}

// Pong is the decoded payload of a TypePong health reply: the server's
// live gauges, read without mutating it.
type Pong struct {
	StreamTotal int64  // estimator stream volume
	QueueDepth  uint32 // batches in the HTTP-fed ingest queue (wire frames never enter it)
	Generations uint32 // sketch generations serving
}

// AppendPing appends a TypePing frame.
func AppendPing(dst []byte) []byte { return appendHeader(dst, TypePing, 0) }

// AppendPong appends a TypePong frame.
func AppendPong(dst []byte, p Pong) []byte {
	dst, rec := appendFrame(dst, TypePong, PongSize)
	binary.LittleEndian.PutUint64(rec[0:], uint64(p.StreamTotal))
	binary.LittleEndian.PutUint32(rec[8:], p.QueueDepth)
	binary.LittleEndian.PutUint32(rec[12:], p.Generations)
	return dst
}

// DecodePong unpacks a TypePong payload.
func DecodePong(payload []byte) (Pong, error) {
	if len(payload) != PongSize {
		return Pong{}, fmt.Errorf("%w: pong payload %d bytes, want %d", ErrBadPayload, len(payload), PongSize)
	}
	return Pong{
		StreamTotal: int64(binary.LittleEndian.Uint64(payload[0:])),
		QueueDepth:  binary.LittleEndian.Uint32(payload[8:]),
		Generations: binary.LittleEndian.Uint32(payload[12:]),
	}, nil
}

// MaxTenantNameLen bounds TenantSelect payloads; servers validate the
// name against their own stricter charset rules.
const MaxTenantNameLen = 64

// AppendTenantSelect appends a TypeTenantSelect frame; the payload is
// the tenant name as UTF-8 bytes.
func AppendTenantSelect(dst []byte, name string) []byte {
	dst = appendHeader(dst, TypeTenantSelect, len(name))
	return append(dst, name...)
}

// DecodeTenantSelect unpacks a TypeTenantSelect payload. The returned
// string is a copy, safe to retain past the next Decoder.Next call.
func DecodeTenantSelect(payload []byte) (string, error) {
	if len(payload) == 0 || len(payload) > MaxTenantNameLen {
		return "", fmt.Errorf("%w: tenant name %d bytes, want 1..%d", ErrBadPayload, len(payload), MaxTenantNameLen)
	}
	return string(payload), nil
}

// AppendTenantAck appends a TypeTenantAck frame.
func AppendTenantAck(dst []byte) []byte { return appendHeader(dst, TypeTenantAck, 0) }
