package adapt

import (
	"io"
	"sync"

	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/stream"
)

// Recorder reservoir-samples the live query workload into the paper's
// query-workload-sample format — a bag of edges whose source vertices are
// the queried ones, exactly what vstats.ApplyWorkload (and therefore the
// §4.2 workload-aware partitioning objective) consumes. An engine serving
// real traffic thus produces the sample the paper assumes is "available"
// for partitioning: record for a while, export the sample, and feed it
// into a rebuild — the record → rebuild → swap loop the Manager closes
// in-process.
//
// Sampling is uniform over all queries seen (Vitter's Algorithm R via
// stream.Reservoir), so heavily queried vertices appear proportionally more
// often — the property the frequency counts of Eq. 10 rely on.
type Recorder struct {
	mu  sync.Mutex
	res *stream.Reservoir
	now func() int64 // arrival stamp for recorded queries (unix seconds)
}

// NewRecorder returns a recorder keeping a uniform sample of at most
// capacity queries, deterministic under seed. now stamps recorded queries
// (nil leaves timestamps zero).
func NewRecorder(capacity int, seed uint64, now func() int64) *Recorder {
	if now == nil {
		now = func() int64 { return 0 }
	}
	return &Recorder{res: stream.NewReservoir(capacity, seed), now: now}
}

// Record offers a batch of answered edge queries to the reservoir.
func (r *Recorder) Record(qs []core.EdgeQuery) {
	if len(qs) == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	for _, q := range qs {
		r.res.Observe(stream.Edge{Src: q.Src, Dst: q.Dst, Weight: 1, Time: t})
	}
	r.mu.Unlock()
}

// Sample returns a copy of the current workload sample.
func (r *Recorder) Sample() []stream.Edge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.res.Sample()
	out := make([]stream.Edge, len(s))
	copy(out, s)
	return out
}

// SourceShares adds each source's share of the current sample's queries to
// dist, reading the sample in place, and returns the sample's size.
func (r *Recorder) SourceShares(dist map[uint64]float64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.res.Sample()
	addSources(dist, s)
	return len(s)
}

// Len returns the current sample size without copying the sample.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.res.Sample())
}

// Seen returns the number of queries offered so far.
func (r *Recorder) Seen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.Seen()
}

// Capacity returns the reservoir capacity.
func (r *Recorder) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.Capacity()
}

// WriteTo exports the sample in the text edge-file format ("src dst weight
// time" lines) that stream.ReadTextEdges parses and BuildGSketch accepts as
// a workloadSample — the sample-collection loop closed.
func (r *Recorder) WriteTo(w io.Writer) (int64, error) {
	cw := &stream.CountingWriter{W: w}
	err := stream.WriteTextEdges(cw, r.Sample())
	return cw.N, err
}
