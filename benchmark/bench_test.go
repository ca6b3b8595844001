package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// The tests run every workload and the ladder at smoke scale against a real
// gsketch-serve child, so they need the go toolchain to build it.

var testOpts options

func TestMain(m *testing.M) {
	c := common{root: "..", seed: 1, seconds: 1, scale: "smoke"}
	var err error
	if testOpts, err = c.resolve(); err != nil {
		os.Stderr.WriteString("benchmark test: " + err.Error() + "\n")
		os.Exit(1)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics asserts that exactly the declared names were emitted, each
// with a finite value and its declared unit.
func checkMetrics(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if len(o.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", o.Workload, len(o.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := o.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: declared metric %s was not emitted", o.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v is not finite", o.Workload, d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", o.Workload, d.Name, m.Unit, d.Unit)
		}
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
		}
	}
}

func TestWorkloadsEndToEnd(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o, err := runWorkload(w, testOpts)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, o, endToEnd)
			if !o.Correct || o.Failed != 0 {
				t.Errorf("failed %d of %d ops: %v", o.Failed, o.Attempted, o.Problems)
			}
			if got := o.Metrics["ok_op_pct"].Value; got != 100 {
				t.Errorf("ok_op_pct = %v, want 100", got)
			}
			if o.Attempted < 1 {
				t.Errorf("attempted %d ops", o.Attempted)
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	opt := testOpts
	opt.trace = true
	opt.outDir = t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			o, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, o, perLayer)
			if !o.Correct || o.Metrics["failed_op_pct"].Value != 0 {
				t.Errorf("failed %d of %d ops: %v", o.Failed, o.Attempted, o.Problems)
			}
			raw, err := os.ReadFile(o.SpanFile)
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatalf("span file: %v", err)
			}
			ids := make(map[uint64]bool, len(spans))
			for _, s := range spans {
				ids[s.ID] = true
			}
			for _, s := range spans {
				if s.Name == "" || s.Workload != w.Name || s.EndNs < s.StartNs {
					t.Fatalf("malformed span %+v", s)
				}
				if s.Parent != 0 && !ids[s.Parent] {
					t.Fatalf("span %+v names a parent that was not recorded", s)
				}
			}
			if len(spans) == 0 {
				t.Error("no spans recorded")
			}
		})
	}
}

// The checker must really check: each injected fault has to surface as
// failed ops and a non-zero exit.
func TestFaultsAreCaught(t *testing.T) {
	for _, tc := range []struct {
		fault, workload string
	}{
		{"corrupt-shadow", "wire_bulk_small"},
		{"corrupt-shadow", "http_tenants"},
		{"kill-server", "wire_bulk_small"},
		{"kill-server", "http_tenants"},
	} {
		t.Run(tc.fault+"/"+tc.workload, func(t *testing.T) {
			opt := testOpts
			opt.corruptShadow = tc.fault == "corrupt-shadow"
			if tc.fault == "kill-server" {
				opt.killAtFrame = 2
			}
			w, err := findWorkload(tc.workload)
			if err != nil {
				t.Fatal(err)
			}
			o, err := runWorkload(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			if o.Correct || o.Failed == 0 {
				t.Errorf("fault went unnoticed: correct=%v failed=%d of %d", o.Correct, o.Failed, o.Attempted)
			}
			if got := o.Metrics["ok_op_pct"].Value; got >= 100 {
				t.Errorf("ok_op_pct = %v under an injected fault", got)
			}
		})
	}
	// The exit status: the driver form must return an error after printing.
	err := dispatch([]string{"-root", "..", "-scale", "smoke", "-seconds", "1",
		"-fault", "corrupt-shadow", "--workload", "wire_bulk_small", "--seed", "1", "--trace", "0"})
	if !errors.Is(err, errIncorrect) {
		t.Errorf("driver run with a corrupted shadow returned %v, want errIncorrect", err)
	}
}

// BENCHMARK.json must say exactly what the tables in spec.go say.
func TestDeclarationMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if want := declaration(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and spec.go disagree; regenerate with BENCH_WRITE_JSON=1 go test -run TestWriteBenchmarkJSON .")
	}
	seen := map[string]bool{}
	for _, list := range [][]metricJSON{got.EndToEnd, got.PerLayer} {
		for _, m := range list {
			if seen[m.Name] || !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q is repeated or malformed", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for _, m := range got.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
	}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: malformed name or a why over 200 characters", w.Name)
		}
	}
}

// The open loop's schedule: pauses stop traffic time, due and traffic are
// each other's inverse outside the pauses, and nothing is due inside one.
func TestPacedClock(t *testing.T) {
	w, err := findWorkload("wire_mixed_paced")
	if err != nil {
		t.Fatal(err)
	}
	r := &run{sz: w.size(16, false)}
	start := time.Unix(1000, 0)
	c := r.pacedClock(start)
	if c.phase != 2*time.Second || c.gaps != pacedGapsPerPhase*w.Phases {
		t.Fatalf("phase %v with %d pauses", c.phase, c.gaps)
	}
	prev := start.Add(-time.Nanosecond)
	for tr := time.Duration(0); tr <= 16*time.Second; tr += 7 * time.Millisecond {
		due := c.due(tr)
		if !due.After(prev) {
			t.Fatalf("due time went back at traffic %v", tr)
		}
		prev = due
		if got := c.traffic(due); got != tr {
			t.Fatalf("traffic(due(%v)) = %v", tr, got)
		}
	}
	// The first pause begins an eighth into the first phase and holds
	// traffic time still for pacedGap.
	first := c.gapAt(0)
	if first != 250*time.Millisecond {
		t.Fatalf("first pause at %v", first)
	}
	if got := c.due(first).Sub(c.due(first - time.Nanosecond)); got != pacedGap+time.Nanosecond {
		t.Errorf("the first pause lasts %v", got)
	}
	if got := c.traffic(start.Add(first + pacedGap/2)); got != first {
		t.Errorf("traffic time inside the first pause = %v, want %v", got, first)
	}
	if got, want := c.due(16*time.Second).Sub(start), 16*time.Second+time.Duration(c.gaps)*pacedGap; got != want {
		t.Errorf("the schedule ends after %v, want %v", got, want)
	}
}

func TestReferenceJob(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	if _, err := h.ratio(); err == nil {
		t.Error("a ratio without samples")
	}
	for i := 0; i < 3; i++ {
		h.sample()
	}
	got, err := h.ratio()
	if err != nil || len(h.samples) != 3 || !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("ratio %v over %d samples: %v", got, len(h.samples), err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(name string, values ...float64) *resultFile {
		f := &resultFile{}
		w := f.workload("wire_bulk_small")
		for _, v := range values {
			o := &outcome{Metrics: map[string]metric{}, Attempted: 100, Correct: true, Valid: true}
			for _, d := range endToEnd {
				o.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit}
			}
			o.Metrics[name] = metric{Value: v, Unit: o.Metrics[name].Unit}
			w.add(o)
		}
		return f
	}
	for _, tc := range []struct {
		what      string
		metric    string
		base, new []float64
		worse     bool
		verdict   string
	}{
		{"equal runs", "ingest_edges_per_s", []float64{100, 101, 99}, []float64{100, 100, 101}, false, "same"},
		{"a 40 % throughput drop", "ingest_edges_per_s", []float64{100, 101, 99}, []float64{60, 61, 59}, true, "worse"},
		{"a spread wider than the bound", "ingest_edges_per_s", []float64{100, 150, 60}, []float64{60, 61, 59}, false, "unresolved"},
		{"an error rising from a base of 0", "avg_rel_error", []float64{0, 0, 0}, []float64{5, 5, 5}, true, "worse"},
		{"a share rising from a base of 0", "within_limit_pct", []float64{0, 0, 0}, []float64{90, 90, 90}, false, "better"},
		{"a base of 0 that did not repeat", "avg_rel_error", []float64{0, 0, 0, 3, 4}, []float64{5, 5, 5}, false, "unresolved"},
	} {
		var out bytes.Buffer
		worse := compare(&out, mk(tc.metric, tc.base...), mk(tc.metric, tc.new...), 1)
		row := regexp.MustCompile(`(?m)^.*\b` + tc.metric + `\b.*$`).FindString(out.String())
		if worse != tc.worse || !regexp.MustCompile(`\b`+tc.verdict+`\b`).MatchString(row) {
			t.Errorf("%s: worse=%v, want %v with verdict %s:\n%s", tc.what, worse, tc.worse, tc.verdict, row)
		}
	}
}

// TestWriteBenchmarkJSON regenerates ../BENCHMARK.json from the tables in
// spec.go when BENCH_WRITE_JSON is set.
func TestWriteBenchmarkJSON(t *testing.T) {
	if os.Getenv("BENCH_WRITE_JSON") == "" {
		t.Skip("set BENCH_WRITE_JSON=1 to rewrite ../BENCHMARK.json")
	}
	blob, err := json.MarshalIndent(declaration(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
