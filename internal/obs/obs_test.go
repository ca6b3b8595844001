package obs

import (
	"bytes"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("gauge = %v, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("gauge = %v, want -1", got)
	}
}

func TestHistogramQuantileBracketsInjectedLatencies(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", nil)
	// 90 fast observations at ~2ms, 10 slow at ~80ms: p50 must land in
	// the 1ms–2.5ms bucket, p99 in the 50ms–100ms bucket.
	for i := 0; i < 90; i++ {
		h.Observe(0.002)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.080)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	wantSum := 90*0.002 + 10*0.080
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
	p50 := h.Quantile(0.50)
	if p50 < 0.001 || p50 > 0.0025 {
		t.Fatalf("p50 = %v, want within (0.001, 0.0025]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 0.05 || p99 > 0.1 {
		t.Fatalf("p99 = %v, want within (0.05, 0.1]", p99)
	}
	if q := h.Quantile(0); q < 0 || q > 0.0025 {
		t.Fatalf("q0 = %v out of low bucket", q)
	}
}

func TestHistogramObserveSinceAndOverflow(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.ObserveSince(time.Now().Add(-5 * time.Millisecond))
	h.Observe(100) // lands in +Inf
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	// +Inf observations clamp to the top finite bound.
	if q := h.Quantile(1); q != 0.01 {
		t.Fatalf("q1 = %v, want clamp to 0.01", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(nil)
	var wg sync.WaitGroup
	const per = 1000
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w+1) * 0.0001)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != 8*per {
		t.Fatalf("count = %d, want %d", got, 8*per)
	}
}

func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_requests_total", "requests served", Label{"route", "/ingest"})
	c.Add(7)
	r.Counter("app_requests_total", "requests served", Label{"route", "/query"}).Add(3)
	g := r.Gauge("app_queue_depth", "queued batches")
	g.Set(12)
	r.GaugeFunc("app_up", "always one", func() float64 { return 1 })
	r.CounterFunc("app_ticks_total", "ticks", func() int64 { return 42 })
	h := r.Histogram("app_latency_seconds", "request latency", []float64{0.01, 0.1, 1},
		Label{"route", "/ingest"})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP app_requests_total requests served",
		"# TYPE app_requests_total counter",
		`app_requests_total{route="/ingest"} 7`,
		`app_requests_total{route="/query"} 3`,
		"# TYPE app_queue_depth gauge",
		"app_queue_depth 12",
		"app_up 1",
		"app_ticks_total 42",
		"# TYPE app_latency_seconds histogram",
		`app_latency_seconds_bucket{route="/ingest",le="0.01"} 1`,
		`app_latency_seconds_bucket{route="/ingest",le="0.1"} 2`,
		`app_latency_seconds_bucket{route="/ingest",le="1"} 2`,
		`app_latency_seconds_bucket{route="/ingest",le="+Inf"} 3`,
		`app_latency_seconds_count{route="/ingest"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	fams, err := ParseFamilies(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	byName := map[string]Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	if f := byName["app_requests_total"]; f.Type != "counter" || len(f.Samples) != 2 {
		t.Fatalf("app_requests_total parsed as %+v", f)
	}
	snap, err := FindHistogram(fams, "app_latency_seconds", map[string]string{"route": "/ingest"})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != 3 {
		t.Fatalf("scraped count = %d, want 3", snap.Count)
	}
	if q := snap.Quantile(0.5); q <= 0.01 || q > 0.1 {
		t.Fatalf("scraped p50 = %v, want in (0.01, 0.1]", q)
	}
}

func TestGaugeSetAndCounterSetRenderDynamicSeries(t *testing.T) {
	r := NewRegistry()
	resident := []string{"acme", "globex"}
	r.GaugeSet("app_tenant_resident", "1 per resident tenant", func() []SetSample {
		out := make([]SetSample, 0, len(resident))
		for _, name := range resident {
			out = append(out, SetSample{Labels: []Label{{"tenant", name}}, Value: 1})
		}
		return out
	})
	r.CounterSet("app_tenant_edges_total", "edges per tenant", func() []SetSample {
		return []SetSample{{Labels: []Label{{"tenant", "acme"}}, Value: 99}}
	})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE app_tenant_resident gauge",
		`app_tenant_resident{tenant="acme"} 1`,
		`app_tenant_resident{tenant="globex"} 1`,
		"# TYPE app_tenant_edges_total counter",
		`app_tenant_edges_total{tenant="acme"} 99`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	// Series must follow deletions: drop a tenant, scrape again.
	resident = resident[:1]
	buf.Reset()
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "globex") {
		t.Fatalf("deleted tenant still exposed:\n%s", buf.String())
	}
	if _, err := ParseFamilies(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("set exposition does not parse: %v\n%s", err, buf.String())
	}
}

func TestPrepareHookRunsOncePerScrape(t *testing.T) {
	r := NewRegistry()
	calls := 0
	r.AddPrepare(func() { calls++ })
	snap := 0.0
	r.GaugeFunc("a", "", func() float64 { return snap })
	r.GaugeFunc("b", "", func() float64 { return snap })
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("prepare ran %d times, want 1", calls)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "odd labels", Label{"path", `a"b\c` + "\n"}).Inc()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseFamilies(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("escaped exposition does not parse: %v\n%s", err, buf.String())
	}
	got := fams[0].Samples[0].Labels["path"]
	if got != `a"b\c`+"\n" {
		t.Fatalf("label round-trip = %q", got)
	}
}

func TestDuplicateAndMismatchedRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "x")
	for name, fn := range map[string]func(){
		"duplicate series": func() { r.Counter("dup_total", "x") },
		"kind mismatch":    func() { r.Gauge("dup_total", "x") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"no_type_header 1\n",
		"# TYPE x wat\nx 1\n",
		"# TYPE x counter\nx{le=\"oops} 1\n",
		"# TYPE x counter\nx{le=\"{ok}\" 1\n",
		"# TYPE x counter\nx notanumber\n",
	} {
		if _, err := ParseFamilies(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseFamilies accepted %q", bad)
		}
	}
}

func TestObserveDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("alloc_latency_seconds", "x", nil)
	c := r.Counter("alloc_total", "x")
	g := r.Gauge("alloc_gauge", "x")
	start := time.Now()
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(0.003)
		h.ObserveSince(start)
		c.Add(3)
		g.Set(1)
	}); n != 0 {
		t.Fatalf("hot-path instruments allocate %v per op, want 0", n)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", "shard", 1)
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, `"shard":1`) {
		t.Fatalf("logger output: %q", out)
	}
	if _, err := NewLogger(&buf, "loud", "text"); err == nil {
		t.Fatal("bad level accepted")
	}
	if _, err := NewLogger(&buf, "info", "xml"); err == nil {
		t.Fatal("bad format accepted")
	}
	if n := NopLogger(); n.Enabled(nil, slog.LevelError) {
		t.Fatal("nop logger claims enabled")
	}
}
