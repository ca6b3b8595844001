package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// envelope names the conditions a result was recorded under; a number
// without them is not a result.
type envelope struct {
	Schema     int     `json:"schema"`
	NumCPU     int     `json:"num_cpu"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	GitDirty   bool    `json:"git_dirty"`
	Kernel     string  `json:"kernel"`
	Date       string  `json:"date"`
	Seed       uint64  `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func newEnvelope(root string, seed uint64, smoke bool, seconds float64, traced bool) envelope {
	env := envelope{
		Schema:     1,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       seed,
		Scale:      "full",
		Seconds:    seconds,
		Traced:     traced,
	}
	if smoke {
		env.Scale = "smoke"
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		env.GitCommit = commit
		if status, err := git("status", "--porcelain"); err == nil {
			env.GitDirty = status != ""
		}
	}
	return env
}

// series is one metric over the runs of a result file.
type series struct {
	Unit    string    `json:"unit"`
	Values  []float64 `json:"values"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples int       `json:"samples,omitempty"` // per run, behind each timing
}

func (s *series) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Q1, s.Q3 = quartiles(s.Values)
}

// spread is the distance between the quartiles as a share of the median. A
// series around a median of 0 either repeats exactly or has no share to
// speak of.
func (s *series) spread() float64 {
	switch {
	case s.Median != 0:
		return (s.Q3 - s.Q1) / math.Abs(s.Median)
	case s.Q3 != s.Q1:
		return math.Inf(1)
	}
	return 0
}

// quartiles matches Python's statistics.quantiles(values, n=4), the
// exclusive method, so spreads here agree with the driver's.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// workloadResult is every run of one workload in a result file.
type workloadResult struct {
	Name      string             `json:"name"`
	Runs      int                `json:"runs"`
	Ops       map[string]int64   `json:"ops"`
	Metrics   map[string]*series `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	Valid     bool               `json:"valid"`
	Invalid   []string           `json:"invalid,omitempty"`
	SpanFile  string             `json:"span_file,omitempty"`
}

func (w *workloadResult) add(o *outcome) {
	w.Runs++
	w.Ops = o.Ops
	for name, m := range o.Metrics {
		s := w.Metrics[name]
		if s == nil {
			s = &series{Unit: m.Unit, Samples: o.Samples[name]}
			w.Metrics[name] = s
		}
		s.add(m.Value)
	}
	w.Attempted += o.Attempted
	w.Failed += o.Failed
	w.Correct = w.Correct && o.Correct
	w.Problems = append(w.Problems, o.Problems...)
	w.Valid = w.Valid && o.Valid
	w.Invalid = append(w.Invalid, o.Invalid...)
	w.SpanFile = o.SpanFile
}

// resultFile is what run and trace write and compare reads.
type resultFile struct {
	envelope
	Valid     bool              `json:"valid"`
	Workloads []*workloadResult `json:"workloads"`
}

func (f *resultFile) workload(name string) *workloadResult {
	for _, w := range f.Workloads {
		if w.Name == name {
			return w
		}
	}
	w := &workloadResult{Name: name, Metrics: map[string]*series{}, Correct: true, Valid: true}
	f.Workloads = append(f.Workloads, w)
	return w
}

func (f *resultFile) write(path string) error {
	f.Valid = true
	for _, w := range f.Workloads {
		f.Valid = f.Valid && w.Valid
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
