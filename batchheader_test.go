package gsketch_test

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/tenant"
)

// TestQueryBatchSharesTotalAndConfidence: every estimator a server answers
// query batches from gives all the results of one batch the same stream
// total N and the same confidence, while edges keep arriving. The wire
// protocol sends both once per results frame (wire.AppendResults), so a
// batch that mixed them would be answered wrongly on the wire. Batches
// span several of core's 2 048-query chunks, and a chain's generations are
// gathered one after the other, so neither may read N more than once.
func TestQueryBatchSharesTotalAndConfidence(t *testing.T) {
	edges := engineTestStream(40_000, 91)
	for i := range edges {
		edges[i].Time = int64(i)
	}
	qs := engineTestQueries(edges, 5_000)
	sample := edges[:2_000]
	chainOpts := func(extra ...gsketch.Option) []gsketch.Option {
		return append([]gsketch.Option{gsketch.WithSample(sample), gsketch.WithAdaptive(
			gsketch.ChainConfig{SampleSize: 4096, Seed: 7, MaxGenerations: 8},
			gsketch.AdaptConfig{Sketch: engineTestCfg},
		)}, extra...)
	}

	// Each case serves half the stream before the batches are asked; the
	// other half is ingested while they are answered.
	type served struct {
		answer func(dst []gsketch.Result, qs []gsketch.EdgeQuery) []gsketch.Result
		ingest func(edges []gsketch.Edge)
		// zeroConfidence: a generation's answers are lost, so every
		// combined answer advertises confidence 0.
		zeroConfidence bool
	}
	half := len(edges) / 2
	fromEngine := func(t *testing.T, eng *gsketch.Engine) served {
		ingest := func(edges []gsketch.Edge) {
			if err := eng.Ingest(context.Background(), edges...); err != nil {
				t.Error(err)
			}
		}
		return served{answer: eng.AppendQueryBatch, ingest: ingest}
	}
	open := func(t *testing.T, opts ...gsketch.Option) *gsketch.Engine {
		eng, err := gsketch.Open(engineTestCfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	// pivot ingests the first half in three phases with a repartition after
	// each of the first two: a chain of three generations.
	pivot := func(t *testing.T, eng *gsketch.Engine) {
		seg := half / 3
		for p := 0; p < 3; p++ {
			if err := eng.Ingest(context.Background(), edges[p*seg:(p+1)*seg]...); err != nil {
				t.Fatal(err)
			}
			if p < 2 {
				if _, err := eng.Repartition(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := eng.Generations(); got != 3 {
			t.Fatalf("%d generations, want 3", got)
		}
	}

	cases := map[string]func(t *testing.T) served{
		"partitioned": func(t *testing.T) served {
			eng := open(t, gsketch.WithSample(sample))
			s := fromEngine(t, eng)
			s.ingest(edges[:half])
			return s
		},
		"global": func(t *testing.T) served {
			eng := open(t, gsketch.WithGlobal())
			s := fromEngine(t, eng)
			s.ingest(edges[:half])
			return s
		},
		"chain": func(t *testing.T) served {
			eng := open(t, chainOpts()...)
			pivot(t, eng)
			return fromEngine(t, eng)
		},
		"tenant": func(t *testing.T) served {
			r, err := tenant.New(tenant.Config{Dir: t.TempDir(), Sketch: engineTestCfg, Sample: sample})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			if _, err := r.Create("acme", tenant.Overrides{}); err != nil {
				t.Fatal(err)
			}
			h, err := r.Tenant("acme")
			if err != nil {
				t.Fatal(err)
			}
			s := served{
				answer: func(dst []gsketch.Result, qs []gsketch.EdgeQuery) []gsketch.Result {
					rs, err := h.AppendQueryBatch(dst, qs)
					if err != nil {
						t.Error(err)
					}
					return rs
				},
				ingest: func(edges []gsketch.Edge) {
					for lo := 0; lo < len(edges); {
						n, _ := h.TryIngest(edges[lo:]) // a full queue accepts a prefix
						if lo += n; n == 0 {
							time.Sleep(time.Millisecond)
						}
					}
				},
			}
			s.ingest(edges[:half])
			return s
		},
		"windows": func(t *testing.T) served {
			eng := open(t, gsketch.WithSample(sample), gsketch.WithWindows(gsketch.WindowConfig{Span: 4_000, SampleSize: 256}))
			s := fromEngine(t, eng)
			s.ingest(edges[:half])
			if got := eng.Generations(); got < 2 {
				t.Fatalf("%d windows, want several", got)
			}
			return s
		},
		"chain with a lost tier file": func(t *testing.T) served {
			dir := filepath.Join(t.TempDir(), "tiers")
			eng := open(t, chainOpts(gsketch.WithTiering(dir, 1))...)
			pivot(t, eng)
			if st := eng.Stats().Adapt; st.TieredGenerations < 1 || st.ResidentGenerations >= st.Generations {
				t.Fatalf("%d of %d generations resident, %d tiered: want a spilled one", st.ResidentGenerations, st.Generations, st.TieredGenerations)
			}
			files, err := os.ReadDir(dir)
			if err != nil || len(files) == 0 {
				t.Fatalf("tier directory: %d files, %v", len(files), err)
			}
			for _, f := range files {
				if err := os.Remove(filepath.Join(dir, f.Name())); err != nil {
					t.Fatal(err)
				}
			}
			s := fromEngine(t, eng)
			s.zeroConfidence = true
			return s
		},
	}
	for name, setup := range cases {
		t.Run(name, func(t *testing.T) {
			s := setup(t)
			done := make(chan struct{})
			defer func() { <-done }() // a failing batch still lets the writer finish before cleanup closes
			go func() {
				defer close(done)
				for lo := half; lo < len(edges); lo += 500 {
					s.ingest(edges[lo:min(lo+500, len(edges))])
				}
			}()
			var rs []gsketch.Result
			for batch := 0; batch < 12; batch++ {
				rs = s.answer(rs[:0], qs)
				if len(rs) != len(qs) {
					t.Fatalf("batch %d: %d results for %d queries", batch, len(rs), len(qs))
				}
				total, conf := rs[0].StreamTotal, rs[0].Confidence
				if total <= 0 || conf < 0 || conf >= 1 || (conf == 0) != s.zeroConfidence {
					t.Fatalf("batch %d: stream total %d, confidence %v (a lost generation: %v)", batch, total, conf, s.zeroConfidence)
				}
				for i, r := range rs {
					if r.StreamTotal != total || math.Float64bits(r.Confidence) != math.Float64bits(conf) {
						t.Fatalf("batch %d, result %d: stream total %d, confidence %v; result 0 has %d, %v",
							batch, i, r.StreamTotal, r.Confidence, total, conf)
					}
				}
			}
		})
	}
}
