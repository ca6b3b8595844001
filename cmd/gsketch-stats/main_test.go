package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	gsketch "github.com/graphstream/gsketch"
	"github.com/graphstream/gsketch/internal/core"
	"github.com/graphstream/gsketch/internal/graphgen"
)

// TestMain runs main in place of the tests when runMain re-executes this
// binary, so each case drives the command as a shell would: flags, exit
// code and output.
func TestMain(m *testing.M) {
	if os.Getenv("GSKETCH_TEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runMain(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GSKETCH_TEST_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, out.String(), errOut.String()
}

// TestEmptyStreamMultiplicity: an empty stream has no distinct edges, and
// its multiplicity prints as 0, not NaN.
func TestEmptyStreamMultiplicity(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "empty.txt"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runMain(t, dir, "-stream", "empty.txt")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", code, stderr)
	}
	if !strings.Contains(stdout, "multiplicity:    0.00\n") || strings.Contains(stdout, "NaN") {
		t.Fatalf("stdout:\n%s\nwant multiplicity 0.00 and no NaN", stdout)
	}
}

// TestSnapshotLeafWidths: -snapshot prints each generation's leaf width
// range and outlier width, so a layout is visible without loading it.
func TestSnapshotLeafWidths(t *testing.T) {
	sample, err := graphgen.DefaultRMAT(12, 20000, 1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.BuildGSketch(core.Config{TotalBytes: 1 << 15, Seed: 3}, sample, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumPartitions() < 3 {
		t.Fatalf("fixture built %d partitions, want several", g.NumPartitions())
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "s.gsk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var widths []int
	for _, l := range g.Leaves() {
		widths = append(widths, l.Width)
	}
	slices.Sort(widths)
	want := fmt.Sprintf(" %d %s %d ", g.NumPartitions(),
		fmt.Sprintf("%d/%d/%d", widths[0], widths[len(widths)/2], widths[len(widths)-1]), g.OutlierWidth())
	code, stdout, stderr := runMain(t, dir, "-snapshot", "s.gsk")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var line string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "0 ") {
			line = strings.Join(strings.Fields(l), " ")
		}
	}
	if !strings.Contains(stdout, "widths min/med/max") || !strings.Contains(" "+line+" ", want) {
		t.Fatalf("stdout:\n%s\nwant a generation line with %q", stdout, want)
	}
}

// TestSnapshotGlobal: -snapshot reads a WithGlobal engine's snapshot — a
// leafless generation — and prints "-" for its leaf widths and the whole
// width as its outlier width.
func TestSnapshotGlobal(t *testing.T) {
	dir := t.TempDir()
	eng, err := gsketch.Open(gsketch.Config{TotalWidth: 1000, Seed: 3}, gsketch.WithGlobal(),
		gsketch.WithSnapshotFile(filepath.Join(dir, "g.gsk")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), gsketch.Edge{Src: 1, Dst: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runMain(t, dir, "-snapshot", "g.gsk")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var line string
	for _, l := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(l, "0 ") {
			line = strings.Join(strings.Fields(l), " ")
		}
	}
	if want := "0 1 20000 0 - 1000 1 - - (head)"; line != want {
		t.Fatalf("stdout:\n%s\nwant the generation line %q", stdout, want)
	}
}

// TestSnapshotWindows: -snapshot prints the window index of each
// generation of a windowed engine's snapshot.
func TestSnapshotWindows(t *testing.T) {
	dir := t.TempDir()
	eng, err := gsketch.Open(gsketch.Config{TotalWidth: 1000, Seed: 3}, gsketch.WithGlobal(),
		gsketch.WithWindows(gsketch.WindowConfig{Span: 10, SampleSize: 8}),
		gsketch.WithSnapshotFile(filepath.Join(dir, "w.gsk")))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Ingest(context.Background(), gsketch.Edge{Src: 1, Dst: 2, Time: 5}, gsketch.Edge{Src: 1, Dst: 2, Time: 75}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SaveSnapshot(""); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := runMain(t, dir, "-snapshot", "w.gsk")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var windows []string
	for _, l := range strings.Split(stdout, "\n") {
		if f := strings.Fields(l); len(f) >= 9 && (f[0] == "0" || f[0] == "1") {
			windows = append(windows, f[7])
		}
	}
	if !slices.Equal(windows, []string{"0", "7"}) {
		t.Fatalf("stdout:\n%s\nwant windows 0 and 7, got %v", stdout, windows)
	}
}
