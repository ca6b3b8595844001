package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite REPRO.json from this run's tables")

// reproPath is the pinned table file at the repository root.
const reproPath = "../../REPRO.json"

// pinnedTable is one experiment table as REPRO.json holds it: its columns
// and cells, less the timing columns.
type pinnedTable struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// TestReproduction reruns every experiment and holds every cell but the
// timings to REPRO.json, so that a change to the estimator shows up as a
// diff of paper-figure cells. On the repro profile it also checks the
// paper's claims (see claimFailures): every failing cell must be listed in
// knownFail, and every listed cell must fail. The small profile runs
// always (≈ 1 s); repro (≈ 16 s on 2 vCPUs) is skipped under -short and
// the race detector. After an intended change:
//
//	go test -run TestReproduction ./internal/experiments -update
func TestReproduction(t *testing.T) {
	profiles := []Profile{Small}
	if testing.Short() || raceEnabled {
		t.Log("repro profile skipped under -short and the race detector")
	} else {
		profiles = append(profiles, Repro)
	}
	want := map[string]map[string]pinnedTable{}
	data, err := os.ReadFile(reproPath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", reproPath, err)
		}
	case !*update:
		t.Fatal(err)
	}
	for _, p := range profiles {
		got := runPinned(t, p)
		if *update {
			want[p.Name] = got
		} else {
			compareTables(t, p.Name, want[p.Name], got)
		}
		if p.Name == Repro.Name {
			checkClaims(t, got)
		}
	}
	if *update {
		if err := os.WriteFile(reproPath, encodePinned(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runPinned runs every experiment at profile p through one harness and
// returns its tables by id, timing columns dropped.
func runPinned(t *testing.T, p Profile) map[string]pinnedTable {
	t.Helper()
	h := NewHarness(NewRegistry(p))
	out := make(map[string]pinnedTable)
	for _, e := range AllExperiments() {
		tables, err := e.Run(h)
		if err != nil {
			t.Fatalf("%s/%s: %v", p.Name, e.ID, err)
		}
		for _, tb := range tables {
			var keep []int
			var pt pinnedTable
			for i, c := range tb.Columns {
				if !strings.HasSuffix(c, "-ms") {
					keep = append(keep, i)
					pt.Columns = append(pt.Columns, c)
				}
			}
			for _, row := range tb.Rows {
				cells := make([]string, len(keep))
				for j, i := range keep {
					cells[j] = row[i]
				}
				pt.Rows = append(pt.Rows, cells)
			}
			out[tb.ID] = pt
		}
	}
	return out
}

// compareTables reports every table, column and cell of got that differs
// from want.
func compareTables(t *testing.T, profile string, want, got map[string]pinnedTable) {
	t.Helper()
	if want == nil {
		t.Errorf("%s: profile missing from %s; rerun with -update", profile, reproPath)
		return
	}
	diffs := 0
	for _, id := range sortedKeys(want, got) {
		w, inWant := want[id]
		g, inGot := got[id]
		switch {
		case !inGot:
			t.Errorf("%s/%s: pinned table no longer produced", profile, id)
		case !inWant:
			t.Errorf("%s/%s: table not pinned", profile, id)
		case strings.Join(w.Columns, ",") != strings.Join(g.Columns, ","):
			t.Errorf("%s/%s: columns %q, pinned %q", profile, id, g.Columns, w.Columns)
		case len(w.Rows) != len(g.Rows):
			t.Errorf("%s/%s: %d rows, pinned %d", profile, id, len(g.Rows), len(w.Rows))
		default:
			for r := range g.Rows {
				for c := range g.Rows[r] {
					if g.Rows[r][c] != w.Rows[r][c] {
						diffs++
						t.Errorf("%s/%s %s %s: %s, pinned %s", profile, id, g.Rows[r][0], g.Columns[c], g.Rows[r][c], w.Rows[r][c])
					}
				}
			}
		}
	}
	if diffs > 0 {
		t.Logf("%s: %d cells differ from %s; if the change is intended, rerun with -update and review the diff", profile, diffs, reproPath)
	}
}

// checkClaims holds the claim failures on the repro tables to knownFail.
func checkClaims(t *testing.T, tabs map[string]pinnedTable) {
	t.Helper()
	fails, err := claimFailures(tabs)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range sortedKeys(fails, knownFail) {
		got, failing := fails[k]
		reason, listed := knownFail[k]
		switch {
		case failing && !listed:
			t.Errorf("claim fails: %s (%s)", k, got)
		case listed && !failing:
			t.Errorf("known_fail %s now holds; delete its entry (was: %s)", k, reason)
		}
	}
	t.Logf("repro claims: %d cells fail", len(fails))
}

// Paper claims checked on the repro profile:
//
//	(i)   gSketch ARE ≤ Global ARE, per cell, in every ARE table;
//	(ii)  gSketch effective queries ≥ Global's, per cell, in every
//	      effective-query table;
//	(iii) with a workload sample (scenario B) gSketch's ARE is no higher
//	      than with the data sample alone (scenario A) at equal memory;
//	(iv)  the Global/gSketch ARE ratio rises strictly with α.
var (
	areTables       = []string{"fig4a", "fig4b", "fig4c", "fig6a", "fig7a", "fig7b", "fig7c", "fig9a", "fig10a", "fig10b", "fig10c", "fig12a"}
	effectiveTables = []string{"fig5a", "fig5b", "fig5c", "fig6b", "fig8a", "fig8b", "fig8c", "fig9b", "fig11a", "fig11b", "fig11c", "fig12b"}
	scenarioPairs   = [][2]string{{"fig7a", "fig4a"}, {"fig7b", "fig4b"}, {"fig7c", "fig4c"}, {"fig9a", "fig6a"}}
	alphaTables     = []string{"fig10a", "fig10b", "fig10c", "fig12a"}
)

// claimFailures evaluates the claims and returns every failing cell with
// the values that fail it. Keys name the claim, the table and the row:
// "are/fig4a/256K", "effective/fig5a/32K", "b-vs-a/fig9a/64K" (the
// scenario-B table and its row), "alpha/fig10b".
func claimFailures(tabs map[string]pinnedTable) (map[string]string, error) {
	fails := make(map[string]string)
	cells := func(id, col string) ([]string, []float64, error) {
		tb, ok := tabs[id]
		if !ok {
			return nil, nil, fmt.Errorf("claim table %s missing", id)
		}
		c := -1
		for i, name := range tb.Columns {
			if name == col {
				c = i
			}
		}
		if c < 0 {
			return nil, nil, fmt.Errorf("%s: no column %s in %q", id, col, tb.Columns)
		}
		keys := make([]string, len(tb.Rows))
		vals := make([]float64, len(tb.Rows))
		for r, row := range tb.Rows {
			v, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%s %s %s: %v", id, row[0], col, err)
			}
			keys[r], vals[r] = row[0], v
		}
		return keys, vals, nil
	}
	pair := func(id, colA, colB string) ([]string, []float64, []float64, error) {
		keys, a, err := cells(id, colA)
		if err != nil {
			return nil, nil, nil, err
		}
		_, b, err := cells(id, colB)
		return keys, a, b, err
	}

	for _, id := range areTables {
		keys, global, gsk, err := pair(id, "GlobalSketch-ARE", "gSketch-ARE")
		if err != nil {
			return nil, err
		}
		for r, k := range keys {
			if gsk[r] > global[r] {
				fails["are/"+id+"/"+k] = fmt.Sprintf("gSketch %g > Global %g", gsk[r], global[r])
			}
		}
	}
	for _, id := range effectiveTables {
		keys, global, gsk, err := pair(id, "GlobalSketch-effective", "gSketch-effective")
		if err != nil {
			return nil, err
		}
		for r, k := range keys {
			if gsk[r] < global[r] {
				fails["effective/"+id+"/"+k] = fmt.Sprintf("gSketch %g < Global %g", gsk[r], global[r])
			}
		}
	}
	for _, p := range scenarioPairs {
		keys, b, err := cells(p[0], "gSketch-ARE")
		if err != nil {
			return nil, err
		}
		keysA, a, err := cells(p[1], "gSketch-ARE")
		if err != nil {
			return nil, err
		}
		if strings.Join(keys, ",") != strings.Join(keysA, ",") {
			return nil, fmt.Errorf("%s and %s have different memory grids", p[0], p[1])
		}
		for r, k := range keys {
			if b[r] > a[r] {
				fails["b-vs-a/"+p[0]+"/"+k] = fmt.Sprintf("gSketch %g > %g in %s", b[r], a[r], p[1])
			}
		}
	}
	for _, id := range alphaTables {
		keys, global, gsk, err := pair(id, "GlobalSketch-ARE", "gSketch-ARE")
		if err != nil {
			return nil, err
		}
		ratios := make([]string, len(keys))
		rising := true
		for r := range keys {
			ratios[r] = strconv.FormatFloat(global[r]/gsk[r], 'f', 2, 64)
			if r > 0 && !(global[r]/gsk[r] > global[r-1]/gsk[r-1]) {
				rising = false
			}
		}
		if !rising {
			fails["alpha/"+id] = "Global/gSketch ratios " + strings.Join(ratios, ", ")
		}
	}
	return fails, nil
}

// encodePinned writes REPRO.json with one table row per line, keys sorted.
func encodePinned(all map[string]map[string]pinnedTable) []byte {
	var b bytes.Buffer
	str := func(v any) string {
		out, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(out)
	}
	sep := func(i, n int) string {
		if i < n-1 {
			return ","
		}
		return ""
	}
	b.WriteString("{\n")
	profiles := sortedKeys(all)
	for i, prof := range profiles {
		fmt.Fprintf(&b, "  %s: {\n", str(prof))
		ids := sortedKeys(all[prof])
		for j, id := range ids {
			tb := all[prof][id]
			fmt.Fprintf(&b, "    %s: {\n      \"columns\": %s,\n      \"rows\": [\n", str(id), str(tb.Columns))
			for k, row := range tb.Rows {
				fmt.Fprintf(&b, "        %s%s\n", str(row), sep(k, len(tb.Rows)))
			}
			fmt.Fprintf(&b, "      ]\n    }%s\n", sep(j, len(ids)))
		}
		fmt.Fprintf(&b, "  }%s\n", sep(i, len(profiles)))
	}
	b.WriteString("}\n")
	return b.Bytes()
}

// sortedKeys returns the union of the maps' keys in order.
func sortedKeys[V any](ms ...map[string]V) []string {
	seen := make(map[string]bool)
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// knownFail lists every repro-profile claim cell that fails, with its
// measured cause. TestReproduction fails when a cell fails that is not
// listed here, and when a listed cell holds. A reason splits the cell's
// queries by where gSketch answers them: "sampled sources a vs Global b
// over n" is gSketch's ARE (or effective count) on the n queries whose
// sources the data sample routed to a leaf, beside Global's on the same
// queries; "outlier" is the rest (for subgraph queries, those with any
// unsampled source). The layout follows: leaf count and width range.
var knownFail = map[string]string{
	"alpha/fig10b":         "gSketch ARE 3.834, 2.271, 1.948, 0.8429, 0.637 at α 1.2–2.0 (ratios 2.29, 3.21, 2.95, 5.43, 6.05); leaves 74, 58, 48, 55, 41",
	"are/fig4a/256K":       "sampled sources 9.47 vs Global 7.47 over 8964, outlier 5.26 vs 10.1 over 1036; 256 leaves, 36–52 columns",
	"are/fig4a/512K":       "sampled sources 3.53 vs Global 2.02 over 8964, outlier 1.8 vs 2.67 over 1036; 505 leaves, 37–67 columns",
	"are/fig4b/512K":       "sampled sources 0.649 vs Global 0.447 over 9144, outlier 0.191 vs 1.87 over 856; 238 leaves, 37–2484 columns",
	"are/fig4c/4M":         "sampled sources 1.57 vs Global 0.806 over 8217, outlier 1.85 vs 1.65 over 1783; 4096 leaves, 39–54 columns",
	"are/fig4c/8M":         "sampled sources 0.0963 vs Global 0.112 over 8217, outlier 0.557 vs 0.228 over 1783; 1 leaves, 377487–377487 columns",
	"are/fig6a/256K":       "sampled sources 3.86 vs Global 3.05 over 5531, outlier 2.33 vs 2.08 over 4469; 256 leaves, 36–52 columns",
	"are/fig6a/512K":       "sampled sources 1.4 vs Global 0.832 over 5531, outlier 0.813 vs 0.577 over 4469; 505 leaves, 37–67 columns",
	"are/fig7c/8M":         "sampled sources 1.02 vs Global 0.0335 over 9359, outlier 0.239 vs 0.115 over 641; 1 leaves, 377487–377487 columns",
	"b-vs-a/fig7c/8M":      "B vs A: sampled sources 1.02 vs 0.0963 over 9359 vs 8217, outlier 0.239 vs 0.557 over 641 vs 1783; 1 vs 1 leaves",
	"effective/fig5a/128K": "sampled sources 1624 vs Global 1932 of 8964, outlier 110 vs 46 of 1036; 128 leaves, 36–52 columns",
	"effective/fig5a/256K": "sampled sources 2895 vs Global 4528 of 8964, outlier 577 vs 336 of 1036; 256 leaves, 36–52 columns",
	"effective/fig5a/32K":  "sampled sources 26 vs Global 354 of 8964, outlier 2 vs 0 of 1036; 32 leaves, 37–52 columns",
	"effective/fig5a/512K": "sampled sources 6788 vs Global 8242 of 8964, outlier 1017 vs 914 of 1036; 505 leaves, 37–67 columns",
	"effective/fig5a/64K":  "sampled sources 534 vs Global 873 of 8964, outlier 40 vs 3 of 1036; 64 leaves, 37–52 columns",
	"effective/fig5b/128K": "sampled sources 5324 vs Global 6229 of 9144, outlier 601 vs 167 of 856; 93 leaves, 33–481 columns",
	"effective/fig5b/256K": "sampled sources 7910 vs Global 8267 of 9144, outlier 807 vs 484 of 856; 166 leaves, 34–1029 columns",
	"effective/fig5b/32K":  "sampled sources 279 vs Global 472 of 9144, outlier 110 vs 0 of 856; 30 leaves, 34–111 columns",
	"effective/fig5b/64K":  "sampled sources 1937 vs Global 2686 of 9144, outlier 301 vs 15 of 856; 55 leaves, 33–215 columns",
	"effective/fig5c/1M":   "sampled sources 3414 vs Global 3869 of 8217, outlier 51 vs 119 of 1783; 1024 leaves, 44–49 columns",
	"effective/fig5c/2M":   "sampled sources 5213 vs Global 6431 of 8217, outlier 1125 vs 975 of 1783; 2048 leaves, 43–51 columns",
	"effective/fig5c/4M":   "sampled sources 7701 vs Global 7943 of 8217, outlier 1779 vs 1642 of 1783; 4096 leaves, 39–54 columns",
	"effective/fig5c/512K": "sampled sources 1527 vs Global 1930 of 8217, outlier 20 vs 7 of 1783; 512 leaves, 44–48 columns",
	"effective/fig6b/128K": "sampled sources 2920 vs Global 3042 of 5531, outlier 2859 vs 2827 of 4469; 128 leaves, 36–52 columns",
	"effective/fig6b/256K": "sampled sources 3859 vs Global 4145 of 5531, outlier 3800 vs 3868 of 4469; 256 leaves, 36–52 columns",
	"effective/fig6b/32K":  "sampled sources 30 vs Global 1149 of 5531, outlier 48 vs 1068 of 4469; 32 leaves, 37–52 columns",
	"effective/fig6b/512K": "sampled sources 5313 vs Global 5514 of 5531, outlier 4455 vs 4458 of 4469; 505 leaves, 37–67 columns",
	"effective/fig6b/64K":  "sampled sources 1367 vs Global 1969 of 5531, outlier 1331 vs 1760 of 4469; 64 leaves, 37–52 columns",
	"effective/fig8c/8M":   "sampled sources 8019 vs Global 9357 of 9359, outlier 641 vs 641 of 641; 1 leaves, 377487–377487 columns",
	"effective/fig9b/512K": "sampled sources 7180 vs Global 7187 of 7189, outlier 2808 vs 2811 of 2811; 322 leaves, 43–1956 columns",
}
