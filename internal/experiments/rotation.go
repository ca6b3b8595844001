package experiments

import (
	"fmt"
	"slices"

	"github.com/graphstream/gsketch/internal/adapt"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/hashutil"
	"github.com/graphstream/gsketch/internal/query"
	"github.com/graphstream/gsketch/internal/stream"
)

// carouselPhases is the carousel's phase count: five pivots.
const carouselPhases = 6

// rotationReservoir is the size of every rotation arm's data reservoir and
// of its recorded query workload (gsketch-serve's -workload-cap default).
const rotationReservoir = 4096

// rotationRun is the carousel as the adapt figure replays it: the stream in
// steps of a twentieth of a phase, with 100 queries drawn from each step's
// edges and recorded after it.
type rotationRun struct {
	ds      *Dataset
	phase   int                 // edges per phase
	step    int                 // edges per step
	queries [][]query.EdgeQuery // one slice per step
}

func newRotationRun(ds *Dataset, phase int) *rotationRun {
	r := &rotationRun{ds: ds, phase: phase, step: phase / 20}
	rng := hashutil.NewRNG(ds.Seed + 30)
	for lo := 0; lo < len(ds.Edges); lo += r.step {
		qs := make([]query.EdgeQuery, 100)
		for i := range qs {
			e := ds.Edges[lo+int(rng.Uint64()%uint64(r.step))]
			qs[i] = query.EdgeQuery{Src: e.Src, Dst: e.Dst}
		}
		r.queries = append(r.queries, qs)
	}
	return r
}

// phaseQueries returns the queries recorded during phase p, or during the
// whole stream for p < 0.
func (r *rotationRun) phaseQueries(p int) []query.EdgeQuery {
	steps := r.queries
	if per := r.phase / r.step; p >= 0 {
		steps = steps[p*per : (p+1)*per]
	}
	return slices.Concat(steps...)
}

// cfg is the build configuration of each generation of a g-generation arm
// at budget: every arm spends the same counter bytes.
func (r *rotationRun) cfg(budget, g int) core.Config {
	return core.Config{TotalBytes: budget / g, Seed: r.ds.Seed}
}

// chain starts a rotating chain whose head is partitioned under cfg from
// the data sample, as the static arm's sketch is.
func (r *rotationRun) chain(cfg core.Config) (*adapt.Chain, error) {
	head, err := core.BuildGSketch(cfg, r.ds.DataSample, nil)
	if err != nil {
		return nil, err
	}
	return adapt.NewChain(head, adapt.ChainConfig{
		SampleSize: rotationReservoir, Seed: r.ds.Seed, MaxGenerations: core.MaxChainGenerations,
	}), nil
}

// feed streams the carousel into c a step at a time. After each step it
// records the step's queries into rec, if any, and calls after with the count of
// edges ingested: the point where an arm may rotate.
func (r *rotationRun) feed(c *adapt.Chain, rec *adapt.Recorder, after func(n int) error) error {
	for i, qs := range r.queries {
		n := (i + 1) * r.step
		c.UpdateBatch(r.ds.Edges[n-r.step : n])
		if rec != nil {
			rec.Record(qs)
		}
		if err := after(n); err != nil {
			return err
		}
	}
	return nil
}

// repartitionAt is a rotation arm that calls adapt.Repartition, from the
// chain's reservoir and the recorded workload, after each step that ends at
// an edge count in at.
func (r *rotationRun) repartitionAt(budget int, at []int) (*adapt.Chain, error) {
	cfg := r.cfg(budget, len(at)+1)
	c, err := r.chain(cfg)
	if err != nil {
		return nil, err
	}
	rec := adapt.NewRecorder(rotationReservoir, r.ds.Seed, nil)
	return c, r.feed(c, rec, func(n int) error {
		if len(at) == 0 || at[0] != n {
			return nil
		}
		at = at[1:]
		_, err := adapt.Repartition(c, cfg, rec.Sample())
		return err
	})
}

// driftFires runs the drift trigger live on a chain under cfg:
// adapt.Manager.Check with the engine's default thresholds after every
// step, the step's queries answered first, as a server answers what it
// records. It returns the chain and the edge counts at which it fired.
func (r *rotationRun) driftFires(cfg core.Config) (*adapt.Chain, []int, error) {
	c, err := r.chain(cfg)
	if err != nil {
		return nil, nil, err
	}
	rec := adapt.NewRecorder(rotationReservoir, r.ds.Seed, nil)
	mgr := adapt.NewManager(c, rec, adapt.ManagerConfig{Sketch: cfg})
	var fires []int
	err = r.feed(c, rec, func(n int) error {
		c.EstimateBatch(r.queries[n/r.step-1])
		res, err := mgr.Check()
		if res != nil {
			fires = append(fires, n)
		}
		return err
	})
	return c, fires, err
}

// rotationArm is one row group of the adapt figure: how it builds and feeds
// its estimator at a budget.
type rotationArm struct {
	name string
	run  func(r *rotationRun, budget int) (core.Estimator, error)
}

var rotationArms = []rotationArm{
	{"Global", func(r *rotationRun, budget int) (core.Estimator, error) {
		g, err := core.BuildGlobalSketch(r.cfg(budget, 1))
		if err == nil {
			core.Populate(g, r.ds.Edges)
		}
		return g, err
	}},
	{"static", func(r *rotationRun, budget int) (core.Estimator, error) {
		g, err := core.BuildGSketch(r.cfg(budget, 1), r.ds.DataSample, nil)
		if err == nil {
			core.Populate(g, r.ds.Edges)
		}
		return g, err
	}},
	{"windows", func(r *rotationRun, budget int) (core.Estimator, error) {
		cfg := r.cfg(budget, carouselPhases)
		c, err := r.chain(cfg)
		if err != nil {
			return nil, err
		}
		c.SetWindows(int64(r.phase), cfg)
		return c, r.feed(c, nil, func(int) error { return nil })
	}},
	{"drift", func(r *rotationRun, budget int) (core.Estimator, error) {
		// The trigger reads the workload and the routing, never the
		// counters, so it fires at the same edges at every generation
		// width: a pilot at the whole budget gives the generation count.
		_, pilot, err := r.driftFires(r.cfg(budget, 1))
		if err != nil {
			return nil, err
		}
		c, fires, err := r.driftFires(r.cfg(budget, len(pilot)+1))
		if err == nil && !slices.Equal(pilot, fires) {
			err = fmt.Errorf("drift trigger fired after %v edges at the whole budget, %v at 1/%d of it", pilot, fires, len(pilot)+1)
		}
		return c, err
	}},
	{"explicit", func(r *rotationRun, budget int) (core.Estimator, error) {
		at := make([]int, 0, carouselPhases-1)
		for p := 1; p < carouselPhases; p++ {
			at = append(at, p*r.phase+r.phase/10)
		}
		return r.repartitionAt(budget, at)
	}},
	{"oracle", func(r *rotationRun, budget int) (core.Estimator, error) {
		cfg := r.cfg(budget, carouselPhases)
		gens := make([]*core.GSketch, carouselPhases)
		for p := range gens {
			edges := r.ds.Edges[p*r.phase : (p+1)*r.phase]
			var workload []stream.Edge
			for _, q := range r.phaseQueries(p) {
				workload = append(workload, stream.Edge{Src: q.Src, Dst: q.Dst, Weight: 1})
			}
			g, err := core.BuildGSketch(cfg, reservoirSample(edges, 0.1, r.ds.Seed+uint64(31+p)), workload)
			if err != nil {
				return nil, err
			}
			core.Populate(g, edges)
			gens[p] = g
		}
		return adapt.NewStaticChain(gens, nil), nil
	}},
}

// Rotation is the rotation-policy experiment: on a drifting carousel, at
// equal counter bytes, one sketch against chains that rotate by §5 windows,
// by the drift trigger, by one explicit Repartition a tenth into each
// phase, and a per-phase oracle. Every query is answered at the end of the
// stream, against whole-stream truth. The first table reads each arm's
// overall ARE per budget; one table per budget follows with every phase.
func (h *Harness) Rotation() ([]Table, error) {
	ds, err := h.Reg.Carousel()
	if err != nil {
		return nil, err
	}
	r := newRotationRun(ds, h.Reg.Profile.CarouselPhase)
	note := fmt.Sprintf("carousel: %d sources, %d destinations, %d phases of %d edges, α 1.1; 100 queries drawn from each %d-edge step and recorded after it, answered at the end against whole-stream truth",
		h.Reg.Profile.CarouselSources, h.Reg.Profile.CarouselDests, carouselPhases, r.phase, r.step)
	summary := Table{
		ID:      "adapt",
		Title:   "Overall ARE of the rotation arms at equal counter bytes — Carousel",
		Columns: []string{"memory"},
		Notes:   []string{h.scaleNote(), note, fmt.Sprintf("the %s budget is reported, not decided on", fmtBytes(ds.MemoryGrid[0]))},
	}
	for _, arm := range rotationArms {
		summary.Columns = append(summary.Columns, arm.name+"-ARE")
	}
	tables := []Table{summary}
	for i, budget := range ds.MemoryGrid {
		t := Table{
			ID:      "adapt" + panelLetter(i),
			Title:   fmt.Sprintf("Rotation arms per phase — Carousel (memory %s)", fmtBytes(budget)),
			Columns: []string{"arm", "phase", "ARE", "effective-pct", "below-truth", "over-bound", "generations", "bytes"},
			Notes:   []string{h.scaleNote(), note},
		}
		row := []string{fmtBytes(budget)}
		for _, arm := range rotationArms {
			est, err := arm.run(r, budget)
			if err != nil {
				return nil, fmt.Errorf("experiments: adapt %s/%s: %w", arm.name, fmtBytes(budget), err)
			}
			gens := 1
			if c, ok := est.(*adapt.Chain); ok {
				gens = c.Generations()
			}
			for p := -1; p < carouselPhases; p++ {
				acc := query.EvaluateEdgeQueries(est, ds.Exact, r.phaseQueries(p), query.DefaultG0)
				phase := "all"
				if p >= 0 {
					phase = fmt.Sprint(p)
				} else {
					row = append(row, fmtF(acc.AvgRelErr))
				}
				t.AddRow(arm.name, phase, fmtF(acc.AvgRelErr),
					fmt.Sprintf("%.1f", 100*float64(acc.Effective)/float64(acc.Total)),
					fmt.Sprint(acc.Below), fmt.Sprint(acc.OverBound), fmt.Sprint(gens), fmt.Sprint(est.MemoryBytes()))
			}
		}
		summary.AddRow(row...)
		tables = append(tables, t)
	}
	tables[0] = summary
	return tables, nil
}
