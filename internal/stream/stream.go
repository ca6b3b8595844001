// Package stream defines the graph-stream data model of the paper: a
// sequence of directed, timestamped, weighted edges over a vertex universe
// identified by 64-bit ids (with optional string labels via Interner).
//
// It also provides the stream-side substrates the experiments need:
// reservoir sampling (Vitter's Algorithm R), an exact ground-truth edge
// counter, the global/local variance statistics of §6.1, and text/binary
// edge-file readers and writers.
package stream

import (
	"github.com/graphstream/gsketch/internal/hashutil"
)

// Edge is one graph-stream element (x, y; t) with an optional frequency
// weight (default 1 in the paper's model).
type Edge struct {
	Src uint64 // source vertex id
	Dst uint64 // destination vertex id
	// Weight is the frequency increment carried by this arrival, e.g. call
	// seconds in a telecom stream. The paper's default is 1.
	Weight int64
	// Time is an application timestamp (opaque to the sketches; the window
	// store segments on it).
	Time int64
}

// Increment returns the frequency increment the arrival carries: its
// Weight, with a zero Weight counting as the paper's default of 1.
func (e Edge) Increment() int64 {
	if e.Weight == 0 {
		return 1
	}
	return e.Weight
}

// Key returns the 64-bit sketch key of the directed edge.
func (e Edge) Key() uint64 { return hashutil.EdgeKey(e.Src, e.Dst) }

// EdgeKey returns the sketch key for the directed pair (src, dst) without
// materializing an Edge.
func EdgeKey(src, dst uint64) uint64 { return hashutil.EdgeKey(src, dst) }
