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

var (
	edgePool  = sync.Pool{New: func() any { s := make([]stream.Edge, 0, edgeBufCap); return &s }}
	queryPool = sync.Pool{New: func() any { s := make([]core.EdgeQuery, 0, queryBufCap); return &s }}
	scanPool  = sync.Pool{New: func() any { s := make([]byte, scanBufCap); return &s }}
	framePool = sync.Pool{New: func() any { s := make([]byte, 0, frameBufCap); return &s }}
	// resultPool holds the HTTP handlers' query answers; a buffer starts
	// empty and AppendQueryBatch grows it to the batches it meets. (A wire
	// connection owns one such buffer for its lifetime instead.)
	resultPool = sync.Pool{New: func() any { return new([]core.Result) }}
)

func getEdgeBuf() *[]stream.Edge { return edgePool.Get().(*[]stream.Edge) }

func putEdgeBuf(p *[]stream.Edge) {
	*p = (*p)[:0]
	edgePool.Put(p)
}

func getQueryBuf() *[]core.EdgeQuery { return queryPool.Get().(*[]core.EdgeQuery) }

func putQueryBuf(p *[]core.EdgeQuery) {
	*p = (*p)[:0]
	queryPool.Put(p)
}

func getResultBuf() *[]core.Result { return resultPool.Get().(*[]core.Result) }

func putResultBuf(p *[]core.Result) {
	*p = (*p)[:0]
	resultPool.Put(p)
}

func getScanBuf() *[]byte { return scanPool.Get().(*[]byte) }

func putScanBuf(p *[]byte) { scanPool.Put(p) }

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(p *[]byte) {
	*p = (*p)[:0]
	framePool.Put(p)
}
