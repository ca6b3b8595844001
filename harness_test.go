package gsketch_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkHarnessCompiles vets the benchmark harness against this
// tree. The harness is a nested module that `go build ./...` and
// `go test ./...` never descend into, yet it imports many of this
// module's internal packages: a change to one of their APIs that breaks
// it fails here rather than only when the benchmark runs. The environment
// is the one benchmark/bench.sh builds with.
func TestBenchmarkHarnessCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary found")
	}
	// The go command reuses a passing result while the files the test
	// consulted are unchanged, and it cannot see what vet reads: stat every
	// source so that an edit anywhere in the tree runs the vet again.
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go") || d.Name() == "go.mod":
			_, err = os.Stat(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in benchmark/: %v\n%s", err, out)
	}
}
