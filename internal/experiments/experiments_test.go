package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableFormatting(t *testing.T) {
	tb := Table{
		ID:      "t1",
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tb.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## t1 — demo", "long-column", "333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "a,long-column\n1,2\n333,4\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestFmtBytes(t *testing.T) {
	cases := map[int]string{
		512:       "512",
		1 << 10:   "1K",
		512 << 10: "512K",
		2 << 20:   "2M",
		1 << 30:   "1G",
	}
	for in, want := range cases {
		if got := fmtBytes(in); got != want {
			t.Errorf("fmtBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestRegistryCachesDatasets(t *testing.T) {
	reg := NewRegistry(Small)
	a, err := reg.DBLP()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reg.DBLP()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("registry rebuilt a cached dataset")
	}
	if len(a.Edges) == 0 || len(a.DataSample) == 0 || a.Exact == nil {
		t.Error("dataset incomplete")
	}
	if a.Exact.Arrivals() != int64(len(a.Edges)) {
		t.Error("exact counter does not cover the stream")
	}
}

func TestAllDatasetsBuild(t *testing.T) {
	reg := NewRegistry(Small)
	dss, err := reg.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(dss) != 3 {
		t.Fatalf("got %d datasets", len(dss))
	}
	names := []string{"DBLP", "IPAttack", "GTGraph"}
	for i, ds := range dss {
		if ds.Name != names[i] {
			t.Errorf("dataset %d name %q, want %q", i, ds.Name, names[i])
		}
		if len(ds.MemoryGrid) == 0 || ds.FixedMemory == 0 {
			t.Errorf("%s: memory grid missing", ds.Name)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := AllExperiments()
	if len(all) != 14 {
		t.Fatalf("got %d experiments, want 14 (varratio, fig4..fig14, table1, adapt)", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := FindExperiment("fig4"); !ok {
		t.Error("fig4 not found")
	}
	if _, ok := FindExperiment("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestVarianceRatioExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	h := NewHarness(NewRegistry(Small))
	tables, err := h.VarianceRatio()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 3 {
		t.Fatalf("unexpected shape: %+v", tables)
	}
}

func TestEdgeSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	reg := NewRegistry(Small)
	ds, err := reg.RMAT()
	if err != nil {
		t.Fatal(err)
	}
	pts, err := RunEdgeSweep(ds, EdgeSweepOptions{MemoryGrid: []int{16 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	p := pts[0]
	if p.Global.Total == 0 || p.GSketch.Total == 0 {
		t.Fatal("no queries evaluated")
	}
	// The headline claim on the RMAT stand-in.
	if p.GSketch.AvgRelErr >= p.Global.AvgRelErr {
		t.Errorf("gSketch ARE %.2f not below Global %.2f", p.GSketch.AvgRelErr, p.Global.AvgRelErr)
	}
	if p.Partitions < 2 {
		t.Errorf("only %d partitions", p.Partitions)
	}
	if p.TcGSketch <= 0 || p.TpGlobal <= 0 {
		t.Error("timings not recorded")
	}
}

func TestOutlierSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	reg := NewRegistry(Small)
	ds, err := reg.RMAT()
	if err != nil {
		t.Fatal(err)
	}
	ds2 := *ds
	ds2.MemoryGrid = []int{16 << 10}
	pts, err := RunOutlierSweep(&ds2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].Overall.Total == 0 {
		t.Error("no queries evaluated")
	}
}
