package experiments

import (
	"fmt"
	"sync"

	"github.com/graphstream/gsketch/internal/stream"
)

// DefaultAlpha is the workload skewness of Figures 7–9.
const DefaultAlpha = 1.5

// AlphaGrid is the skewness sweep of Figures 10–12.
var AlphaGrid = []float64{1.2, 1.4, 1.6, 1.8, 2.0}

// Harness runs experiments over one dataset registry, memoizing the
// expensive sweeps that several figures share (e.g. Figures 4, 5, 13 and
// 14 all read the scenario-A edge sweep).
type Harness struct {
	Reg *Registry

	mu        sync.Mutex
	edgeA     map[string][]SweepPoint
	edgeB     map[string][]SweepPoint
	subA      map[string][]SubgraphSweepPoint
	subB      map[string][]SubgraphSweepPoint
	alphaEdge map[string][]AlphaPoint
	alphaSub  map[string][]AlphaPoint
}

// NewHarness wraps a registry.
func NewHarness(reg *Registry) *Harness {
	return &Harness{
		Reg:       reg,
		edgeA:     make(map[string][]SweepPoint),
		edgeB:     make(map[string][]SweepPoint),
		subA:      make(map[string][]SubgraphSweepPoint),
		subB:      make(map[string][]SubgraphSweepPoint),
		alphaEdge: make(map[string][]AlphaPoint),
		alphaSub:  make(map[string][]AlphaPoint),
	}
}

func (h *Harness) edgeSweep(ds *Dataset, withWorkload bool) ([]SweepPoint, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cache := h.edgeA
	if withWorkload {
		cache = h.edgeB
	}
	if pts, ok := cache[ds.Name]; ok {
		return pts, nil
	}
	pts, err := RunEdgeSweep(ds, EdgeSweepOptions{WithWorkload: withWorkload, Alpha: DefaultAlpha})
	if err != nil {
		return nil, err
	}
	cache[ds.Name] = pts
	return pts, nil
}

func (h *Harness) subSweep(ds *Dataset, withWorkload bool) ([]SubgraphSweepPoint, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cache := h.subA
	if withWorkload {
		cache = h.subB
	}
	if pts, ok := cache[ds.Name]; ok {
		return pts, nil
	}
	pts, err := RunSubgraphSweep(ds, EdgeSweepOptions{WithWorkload: withWorkload, Alpha: DefaultAlpha})
	if err != nil {
		return nil, err
	}
	cache[ds.Name] = pts
	return pts, nil
}

func (h *Harness) alphaSweep(ds *Dataset, subgraph bool) ([]AlphaPoint, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cache := h.alphaEdge
	if subgraph {
		cache = h.alphaSub
	}
	if pts, ok := cache[ds.Name]; ok {
		return pts, nil
	}
	pts, err := RunAlphaSweep(ds, AlphaGrid, 0, subgraph)
	if err != nil {
		return nil, err
	}
	cache[ds.Name] = pts
	return pts, nil
}

func (h *Harness) scaleNote() string {
	return fmt.Sprintf("profile %q: synthetic stand-ins at reduced scale; see the Profile docs in internal/experiments", h.Reg.Profile.Name)
}

// VarianceRatio reproduces the §6.1 in-text statistics σ_G, σ_V and their
// ratio for all three datasets (paper: 3.674, 10.107, 4.156).
func (h *Harness) VarianceRatio() ([]Table, error) {
	dss, err := h.Reg.All()
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "varratio",
		Title:   "Edge-frequency variance ratio σ_G/σ_V (§6.1)",
		Columns: []string{"dataset", "distinct-edges", "sources", "sigma_G", "sigma_V", "ratio"},
		Notes:   []string{h.scaleNote(), "paper ratios: DBLP 3.674, IP Attack 10.107, GTGraph 4.156"},
	}
	for _, ds := range dss {
		st := stream.ComputeVarianceStats(ds.Exact)
		t.AddRow(ds.Name, fmt.Sprint(st.DistinctEdges), fmt.Sprint(st.Sources),
			fmtF(st.GlobalVariance), fmtF(st.LocalVariance), fmtF(st.Ratio))
	}
	return []Table{t}, nil
}

// panelLetter gives the paper's panel suffix for dataset i (a, b, c).
func panelLetter(i int) string { return string(rune('a' + i)) }

// Fig4 — average relative error of edge queries vs memory, scenario A.
func (h *Harness) Fig4() ([]Table, error) {
	return h.edgeAccuracyTables("fig4", "Avg relative error of edge queries Qe vs memory (data sample)", false, true)
}

// Fig5 — number of effective queries vs memory, scenario A.
func (h *Harness) Fig5() ([]Table, error) {
	return h.edgeAccuracyTables("fig5", "Number of effective queries (G0=5) for Qe vs memory (data sample)", false, false)
}

// Fig7 — average relative error vs memory with data+workload samples
// (α = 1.5).
func (h *Harness) Fig7() ([]Table, error) {
	return h.edgeAccuracyTables("fig7", "Avg relative error of edge queries Qe vs memory (data+workload, α=1.5)", true, true)
}

// Fig8 — effective queries vs memory with data+workload samples (α = 1.5).
func (h *Harness) Fig8() ([]Table, error) {
	return h.edgeAccuracyTables("fig8", "Number of effective queries (G0=5) for Qe vs memory (data+workload, α=1.5)", true, false)
}

func (h *Harness) edgeAccuracyTables(id, title string, withWorkload, are bool) ([]Table, error) {
	dss, err := h.Reg.All()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, ds := range dss {
		pts, err := h.edgeSweep(ds, withWorkload)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:    fmt.Sprintf("%s%s", id, panelLetter(i)),
			Title: fmt.Sprintf("%s — %s", title, ds.Name),
			Notes: []string{h.scaleNote()},
		}
		if are {
			t.Columns = []string{"memory", "GlobalSketch-ARE", "gSketch-ARE", "improvement"}
			for _, p := range pts {
				t.AddRow(fmtBytes(p.Bytes), fmtF(p.Global.AvgRelErr), fmtF(p.GSketch.AvgRelErr),
					improvement(p.Global.AvgRelErr, p.GSketch.AvgRelErr))
			}
		} else {
			t.Columns = []string{"memory", "GlobalSketch-effective", "gSketch-effective"}
			for _, p := range pts {
				t.AddRow(fmtBytes(p.Bytes), fmt.Sprint(p.Global.Effective), fmt.Sprint(p.GSketch.Effective))
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig6 — aggregate subgraph queries on DBLP, scenario A: (a) ARE,
// (b) effective queries.
func (h *Harness) Fig6() ([]Table, error) {
	return h.subgraphTables("fig6", "Subgraph queries Qg vs memory (data sample) — DBLP", false)
}

// Fig9 — aggregate subgraph queries on DBLP, scenario B (α = 1.5).
func (h *Harness) Fig9() ([]Table, error) {
	return h.subgraphTables("fig9", "Subgraph queries Qg vs memory (data+workload, α=1.5) — DBLP", true)
}

func (h *Harness) subgraphTables(id, title string, withWorkload bool) ([]Table, error) {
	ds, err := h.Reg.DBLP()
	if err != nil {
		return nil, err
	}
	pts, err := h.subSweep(ds, withWorkload)
	if err != nil {
		return nil, err
	}
	are := Table{
		ID:      id + "a",
		Title:   title + " — avg relative error",
		Columns: []string{"memory", "GlobalSketch-ARE", "gSketch-ARE", "improvement"},
		Notes:   []string{h.scaleNote()},
	}
	eff := Table{
		ID:      id + "b",
		Title:   title + " — effective queries (G0=5)",
		Columns: []string{"memory", "GlobalSketch-effective", "gSketch-effective"},
		Notes:   []string{h.scaleNote()},
	}
	for _, p := range pts {
		are.AddRow(fmtBytes(p.Bytes), fmtF(p.Global.AvgRelErr), fmtF(p.GSketch.AvgRelErr),
			improvement(p.Global.AvgRelErr, p.GSketch.AvgRelErr))
		eff.AddRow(fmtBytes(p.Bytes), fmt.Sprint(p.Global.Effective), fmt.Sprint(p.GSketch.Effective))
	}
	return []Table{are, eff}, nil
}

// Fig10 — edge-query ARE vs workload skewness α at fixed memory.
func (h *Harness) Fig10() ([]Table, error) {
	return h.alphaTables("fig10", "Avg relative error of edge queries Qe vs Zipf skewness α", false, true)
}

// Fig11 — effective edge queries vs α at fixed memory.
func (h *Harness) Fig11() ([]Table, error) {
	return h.alphaTables("fig11", "Number of effective queries (G0=5) for Qe vs Zipf skewness α", false, false)
}

func (h *Harness) alphaTables(id, title string, subgraph, are bool) ([]Table, error) {
	dss, err := h.Reg.All()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, ds := range dss {
		pts, err := h.alphaSweep(ds, subgraph)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:    fmt.Sprintf("%s%s", id, panelLetter(i)),
			Title: fmt.Sprintf("%s — %s (memory %s)", title, ds.Name, fmtBytes(ds.FixedMemory)),
			Notes: []string{h.scaleNote()},
		}
		if are {
			t.Columns = []string{"alpha", "GlobalSketch-ARE", "gSketch-ARE", "improvement"}
			for _, p := range pts {
				t.AddRow(fmt.Sprintf("%.1f", p.Alpha), fmtF(p.Global.AvgRelErr), fmtF(p.GSketch.AvgRelErr),
					improvement(p.Global.AvgRelErr, p.GSketch.AvgRelErr))
			}
		} else {
			t.Columns = []string{"alpha", "GlobalSketch-effective", "gSketch-effective"}
			for _, p := range pts {
				t.AddRow(fmt.Sprintf("%.1f", p.Alpha), fmt.Sprint(p.Global.Effective), fmt.Sprint(p.GSketch.Effective))
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig12 — subgraph queries on DBLP vs α at fixed memory: ARE and
// effective-query tables.
func (h *Harness) Fig12() ([]Table, error) {
	ds, err := h.Reg.DBLP()
	if err != nil {
		return nil, err
	}
	pts, err := h.alphaSweep(ds, true)
	if err != nil {
		return nil, err
	}
	are := Table{
		ID:      "fig12a",
		Title:   fmt.Sprintf("Subgraph queries Qg vs α — DBLP (memory %s) — avg relative error", fmtBytes(ds.FixedMemory)),
		Columns: []string{"alpha", "GlobalSketch-ARE", "gSketch-ARE", "improvement"},
		Notes:   []string{h.scaleNote()},
	}
	eff := Table{
		ID:      "fig12b",
		Title:   fmt.Sprintf("Subgraph queries Qg vs α — DBLP (memory %s) — effective queries (G0=5)", fmtBytes(ds.FixedMemory)),
		Columns: []string{"alpha", "GlobalSketch-effective", "gSketch-effective"},
		Notes:   []string{h.scaleNote()},
	}
	for _, p := range pts {
		are.AddRow(fmt.Sprintf("%.1f", p.Alpha), fmtF(p.Global.AvgRelErr), fmtF(p.GSketch.AvgRelErr),
			improvement(p.Global.AvgRelErr, p.GSketch.AvgRelErr))
		eff.AddRow(fmt.Sprintf("%.1f", p.Alpha), fmt.Sprint(p.Global.Effective), fmt.Sprint(p.GSketch.Effective))
	}
	return []Table{are, eff}, nil
}

// Fig13 — sketch construction time Tc vs memory for both scenarios.
func (h *Harness) Fig13() ([]Table, error) {
	dss, err := h.Reg.All()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, ds := range dss {
		ptsA, err := h.edgeSweep(ds, false)
		if err != nil {
			return nil, err
		}
		ptsB, err := h.edgeSweep(ds, true)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:      "fig13" + panelLetter(i),
			Title:   fmt.Sprintf("Sketch construction time Tc vs memory — %s", ds.Name),
			Columns: []string{"memory", "Tc-data-sample-ms", "Tc-data+workload-ms", "partitions"},
			Notes:   []string{h.scaleNote(), "Tc is partitioning + sketch allocation (gSketch)"},
		}
		for j := range ptsA {
			t.AddRow(fmtBytes(ptsA[j].Bytes),
				fmtMs(float64(ptsA[j].TcGSketch.Microseconds())/1000),
				fmtMs(float64(ptsB[j].TcGSketch.Microseconds())/1000),
				fmt.Sprint(ptsA[j].Partitions))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Fig14 — query processing time Tp vs memory (per 10k-query batch). The
// DBLP panel additionally reports the subgraph-query series like the
// paper's Figure 14(a).
func (h *Harness) Fig14() ([]Table, error) {
	dss, err := h.Reg.All()
	if err != nil {
		return nil, err
	}
	var tables []Table
	for i, ds := range dss {
		pts, err := h.edgeSweep(ds, false)
		if err != nil {
			return nil, err
		}
		t := Table{
			ID:      "fig14" + panelLetter(i),
			Title:   fmt.Sprintf("Query processing time Tp vs memory — %s", ds.Name),
			Columns: []string{"memory", "Global-Tp-ms", "gSketch-Tp-ms"},
			Notes:   []string{h.scaleNote(), fmt.Sprintf("Tp per batch of %d queries", ds.QuerySize)},
		}
		if ds.Name == "DBLP" {
			sub, err := h.subSweep(ds, false)
			if err != nil {
				return nil, err
			}
			t.Columns = []string{"memory", "Global-Tp-Qe-ms", "gSketch-Tp-Qe-ms", "Global-Tp-Qg-ms", "gSketch-Tp-Qg-ms"}
			for j, p := range pts {
				t.AddRow(fmtBytes(p.Bytes),
					fmtMs(float64(p.TpGlobal.Microseconds())/1000),
					fmtMs(float64(p.TpGSketch.Microseconds())/1000),
					fmtMs(float64(sub[j].TpGlobal.Microseconds())/1000),
					fmtMs(float64(sub[j].TpGSketch.Microseconds())/1000))
			}
		} else {
			for _, p := range pts {
				t.AddRow(fmtBytes(p.Bytes),
					fmtMs(float64(p.TpGlobal.Microseconds())/1000),
					fmtMs(float64(p.TpGSketch.Microseconds())/1000))
			}
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Table1 — outlier-sketch accuracy vs overall gSketch accuracy on the
// GTGraph stand-in across the memory grid.
func (h *Harness) Table1() ([]Table, error) {
	ds, err := h.Reg.RMAT()
	if err != nil {
		return nil, err
	}
	pts, err := RunOutlierSweep(ds, 0)
	if err != nil {
		return nil, err
	}
	t := Table{
		ID:      "table1",
		Title:   "Avg relative error of gSketch and outlier sketch — " + ds.Name,
		Columns: []string{"memory", "gSketch-ARE", "outlier-ARE", "outlier-queries"},
		Notes:   []string{h.scaleNote()},
	}
	for _, p := range pts {
		t.AddRow(fmtBytes(p.Bytes), fmtF(p.Overall.AvgRelErr), fmtF(p.Outlier.AvgRelErr),
			fmt.Sprint(p.OutlierQueries))
	}
	return []Table{t}, nil
}

func improvement(global, gsk float64) string {
	if gsk <= 0 {
		if global <= 0 {
			return "1.0x"
		}
		return "inf"
	}
	return fmt.Sprintf("%.1fx", global/gsk)
}

// Experiment binds an id to its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(h *Harness) ([]Table, error)
}

// AllExperiments lists every reproduced artifact in paper order.
func AllExperiments() []Experiment {
	return []Experiment{
		{"varratio", "§6.1 variance ratios", (*Harness).VarianceRatio},
		{"fig4", "Figure 4: edge-query ARE vs memory (data sample)", (*Harness).Fig4},
		{"fig5", "Figure 5: effective edge queries vs memory (data sample)", (*Harness).Fig5},
		{"fig6", "Figure 6: subgraph queries vs memory (DBLP, data sample)", (*Harness).Fig6},
		{"fig7", "Figure 7: edge-query ARE vs memory (data+workload, α=1.5)", (*Harness).Fig7},
		{"fig8", "Figure 8: effective edge queries vs memory (data+workload, α=1.5)", (*Harness).Fig8},
		{"fig9", "Figure 9: subgraph queries vs memory (DBLP, data+workload, α=1.5)", (*Harness).Fig9},
		{"fig10", "Figure 10: edge-query ARE vs α (fixed memory)", (*Harness).Fig10},
		{"fig11", "Figure 11: effective edge queries vs α (fixed memory)", (*Harness).Fig11},
		{"fig12", "Figure 12: subgraph queries vs α (DBLP, fixed memory)", (*Harness).Fig12},
		{"fig13", "Figure 13: sketch construction time Tc vs memory", (*Harness).Fig13},
		{"fig14", "Figure 14: query processing time Tp vs memory", (*Harness).Fig14},
		{"table1", "Table 1: outlier sketch vs overall gSketch (GTGraph)", (*Harness).Table1},
		{"adapt", "Rotation policies on a drifting carousel at equal memory", (*Harness).Rotation},
	}
}

// FindExperiment returns the experiment with the given id.
func FindExperiment(id string) (Experiment, bool) {
	for _, e := range AllExperiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
