package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around its calls into the server; spans inside the program are a
// later change.
type span struct {
	ID       uint64 `json:"id"`
	Parent   uint64 `json:"parent"` // 0 = root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the trace began
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer hands each goroutine its own lane so recording takes no lock.
// Spans stay in memory until write.
type tracer struct {
	workload string
	origin   time.Time
	lanes    []*spanLane
}

func newTracer(workload string, lanes int) *tracer {
	t := &tracer{workload: workload, origin: time.Now()}
	for i := 0; i < lanes; i++ {
		t.lanes = append(t.lanes, &spanLane{t: t, id: uint64(i + 1)})
	}
	return t
}

// lane returns goroutine i's recorder, or nil when tracing is off; every
// spanLane method accepts a nil receiver so call sites need no branch.
func (t *tracer) lane(i int) *spanLane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

type spanLane struct {
	t     *tracer
	id    uint64
	spans []span
}

// begin opens a span under parent and returns its id.
func (l *spanLane) begin(name string, parent uint64) uint64 {
	if l == nil {
		return 0
	}
	id := l.id<<40 | uint64(len(l.spans)+1)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Workload: l.t.workload,
		StartNs: time.Since(l.t.origin).Nanoseconds(),
	})
	return id
}

// end closes a span this lane opened.
func (l *spanLane) end(id uint64) {
	if l == nil {
		return
	}
	l.spans[id&(1<<40-1)-1].EndNs = time.Since(l.t.origin).Nanoseconds()
}

func (t *tracer) count() int {
	n := 0
	for _, l := range t.lanes {
		n += len(l.spans)
	}
	return n
}

// write stores every span as one JSON array.
func (t *tracer) write(path string) error {
	all := make([]span, 0, t.count())
	for _, l := range t.lanes {
		all = append(all, l.spans...)
	}
	blob, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
