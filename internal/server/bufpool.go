package server

import (
	"sync"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Request-scoped parse, frame and reply buffers, pooled so the hot serving
// paths (NDJSON/JSON and wire alike) allocate nothing per record once
// warm. The pools hand out pointers to slices — pooling the headers
// directly would re-box them on every Put.
//
// Contract: a pooled buffer is returned as soon as the data has been
// handed off (TryIngest copies; AppendQueryBatch reads synchronously; a
// wire connection keeps a frame's edge buffer until it has folded the
// admitted edges out of it), and never retained past the request.

const (
	// edgeBufCap starts edge buffers at one pipeline batch; larger
	// requests grow the buffer once and the grown capacity is what gets
	// pooled.
	edgeBufCap = 8192
	// queryBufCap starts query buffers at the bench's batch size.
	queryBufCap = 4096
	// scanBufCap is the NDJSON scanner buffer: sized to the line bound so
	// bufio.Scanner never grows (and thereby discards) it.
	scanBufCap = maxNDJSONLine
	// frameBufCap starts byte buffers at 64 KiB: wire frame encode buffers,
	// and the one buffer a JSON /query reads its body into and then builds
	// its reply in.
	frameBufCap = 64 << 10
)

// bufPool pools *[]T buffers that start at one capacity: get hands a
// buffer out empty, put empties it and keeps it, grown capacity and all.
type bufPool[T any] struct{ p sync.Pool }

func newBufPool[T any](capacity int) *bufPool[T] {
	return &bufPool[T]{sync.Pool{New: func() any { s := make([]T, 0, capacity); return &s }}}
}

func (p *bufPool[T]) get() *[]T { return p.p.Get().(*[]T) }

func (p *bufPool[T]) put(b *[]T) {
	*b = (*b)[:0]
	p.p.Put(b)
}

var (
	edgeBufs  = newBufPool[stream.Edge](edgeBufCap)
	queryBufs = newBufPool[core.EdgeQuery](queryBufCap)
	scanBufs  = newBufPool[byte](scanBufCap)
	frameBufs = newBufPool[byte](frameBufCap)
	// resultBufs holds the HTTP handlers' query answers; a buffer starts
	// empty and AppendQueryBatch grows it to the batches it meets. (A wire
	// connection owns one such buffer for its lifetime instead.)
	resultBufs = newBufPool[core.Result](0)
)
