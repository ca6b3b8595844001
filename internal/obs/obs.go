package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension, rendered as {key="value"}.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are ignored: counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefBuckets are the default latency bucket upper bounds in seconds,
// ~100µs to 10s: wide enough for a loopback wire frame and a snapshot
// restore alike.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram. Buckets are cumulative
// at render time but stored as per-bucket atomic counters, so Observe is
// lock-free and allocation-free on the hot path. The observed sum is
// kept in integer nanoseconds to stay a single atomic add.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumNs   atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records a duration in seconds.
func (h *Histogram) Observe(seconds float64) {
	i := sort.SearchFloat64s(h.bounds, seconds)
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(seconds * 1e9))
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) {
	h.ObserveDuration(time.Since(start))
}

// ObserveDuration records a duration.
func (h *Histogram) ObserveDuration(d time.Duration) {
	i := sort.SearchFloat64s(h.bounds, d.Seconds())
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(d))
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum is the sum of all observed values in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Quantile derives the q-quantile (0..1) by linear interpolation inside
// the bucket that crosses rank q·count, the same estimate Prometheus'
// histogram_quantile computes server-side. Returns 0 with no
// observations; the top bucket clamps to its lower bound (the
// conventional +Inf answer).
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.bounds) { // +Inf bucket
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// metricKind is the Prometheus TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// SetSample is one dynamically labeled value, produced at scrape time
// by a GaugeSet/CounterSet collector — the shape for series that come
// and go at runtime (per-tenant gauges, say), where registering a
// static child per label set would leak series after the labeled thing
// is deleted.
type SetSample struct {
	Labels []Label
	Value  float64
}

// series is one labeled child of a family.
type series struct {
	labels []Label
	// exactly one of these is set, matching the family kind
	counter     *Counter
	counterFunc func() int64
	gauge       *Gauge
	gaugeFunc   func() float64
	hist        *Histogram
	setFunc     func() []SetSample
}

// family groups same-named series under one HELP/TYPE header.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format (version 0.0.4). Registration takes a lock; reads
// on registered instruments are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
	prepare  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// AddPrepare registers a hook run once at the start of every scrape,
// before any GaugeFunc/CounterFunc is collected — the place to refresh
// a shared snapshot many gauge funcs read, instead of recomputing it
// per gauge.
func (r *Registry) AddPrepare(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.prepare = append(r.prepare, fn)
}

func (r *Registry) register(name, help string, kind metricKind, s *series) {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	for _, prev := range f.series {
		if labelsEqual(prev.labels, s.labels) {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, renderLabels(s.labels)))
		}
	}
	f.series = append(f.series, s)
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers (or panics on duplicate) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.register(name, help, kindCounter, &series{labels: labels, counter: c})
	return c
}

// CounterFunc registers a counter collected by calling fn at scrape time.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.register(name, help, kindCounter, &series{labels: labels, counterFunc: fn})
}

// Gauge registers a settable gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.register(name, help, kindGauge, &series{labels: labels, gauge: g})
	return g
}

// GaugeFunc registers a gauge collected by calling fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(name, help, kindGauge, &series{labels: labels, gaugeFunc: fn})
}

// Histogram registers a histogram series with the given bucket upper
// bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := newHistogram(bounds)
	r.register(name, help, kindHistogram, &series{labels: labels, hist: h})
	return h
}

// GaugeSet registers a gauge family whose entire series set is produced
// by fn at scrape time — for label sets that change at runtime. The
// family owns its name: mixing a set with static series panics like any
// duplicate registration.
func (r *Registry) GaugeSet(name, help string, fn func() []SetSample) {
	r.register(name, help, kindGauge, &series{setFunc: fn})
}

// CounterSet is GaugeSet for counters. fn must return monotonically
// non-decreasing values per label set for the exposition to be a valid
// counter.
func (r *Registry) CounterSet(name, help string, fn func() []SetSample) {
	r.register(name, help, kindCounter, &series{setFunc: fn})
}

// WriteTo renders every family in registration order.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	prepare := append([]func(){}, r.prepare...)
	names := append([]string{}, r.order...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	for _, fn := range prepare {
		fn()
	}

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(f.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(f.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(f.name)
		b.WriteByte(' ')
		b.WriteString(f.kind.String())
		b.WriteByte('\n')
		for _, s := range f.series {
			renderSeries(&b, f, s)
		}
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

func renderSeries(b *strings.Builder, f *family, s *series) {
	if s.setFunc != nil {
		for _, sm := range s.setFunc() {
			if f.kind == kindCounter {
				writeSample(b, f.name, sm.Labels, nil, strconv.FormatInt(int64(sm.Value), 10))
			} else {
				writeSample(b, f.name, sm.Labels, nil, formatFloat(sm.Value))
			}
		}
		return
	}
	switch f.kind {
	case kindCounter:
		v := int64(0)
		if s.counter != nil {
			v = s.counter.Value()
		} else if s.counterFunc != nil {
			v = s.counterFunc()
		}
		writeSample(b, f.name, s.labels, nil, strconv.FormatInt(v, 10))
	case kindGauge:
		v := 0.0
		if s.gauge != nil {
			v = s.gauge.Value()
		} else if s.gaugeFunc != nil {
			v = s.gaugeFunc()
		}
		writeSample(b, f.name, s.labels, nil, formatFloat(v))
	case kindHistogram:
		h := s.hist
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.buckets[i].Load()
			writeSample(b, f.name+"_bucket", s.labels,
				&Label{Key: "le", Value: formatFloat(bound)},
				strconv.FormatInt(cum, 10))
		}
		cum += h.buckets[len(h.bounds)].Load()
		writeSample(b, f.name+"_bucket", s.labels,
			&Label{Key: "le", Value: "+Inf"},
			strconv.FormatInt(cum, 10))
		writeSample(b, f.name+"_sum", s.labels, nil, formatFloat(h.Sum()))
		writeSample(b, f.name+"_count", s.labels, nil, strconv.FormatInt(h.Count(), 10))
	}
}

func writeSample(b *strings.Builder, name string, labels []Label, extra *Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 || extra != nil {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, l)
		}
		if extra != nil {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, *extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Key)
	b.WriteString(`="`)
	b.WriteString(escapeLabel(l.Value))
	b.WriteByte('"')
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, l)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry as text/plain exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = r.WriteTo(w)
	})
}
