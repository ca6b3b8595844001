package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/graphstream/gsketch/internal/stream"
)

// TestMain runs main in place of the tests when runMain re-executes this
// binary, so each case drives the command as a shell would: flags, exit
// code, output and the files left behind.
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

// TestBadFormatRefusedBeforeWork: an unknown -format is a usage error found
// before the dataset is generated, and no output file is created.
func TestBadFormatRefusedBeforeWork(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runMain(t, dir, "-format", "bogus", "-out", "x.txt")
	if code != 2 || !strings.Contains(stderr, `unknown format "bogus"`) {
		t.Fatalf("exit %d, stderr %q; want 2 and the unknown format named", code, stderr)
	}
	if strings.Contains(stderr, "wrote") {
		t.Fatalf("stderr %q: the dataset was generated before the flag was checked", stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "x.txt")); !os.IsNotExist(err) {
		t.Fatalf("x.txt left behind (stat: %v)", err)
	}
}

// TestWritesReadableFile: a valid run writes a file that reads back whole.
func TestWritesReadableFile(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := runMain(t, dir, "-dataset", "rmat", "-format", "binary", "-out", "x.bin")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	edges, err := stream.ReadEdgeFile(filepath.Join(dir, "x.bin"), 0)
	if err != nil || len(edges) == 0 {
		t.Fatalf("read back %d edges, %v", len(edges), err)
	}
	if want := "wrote " + strconv.Itoa(len(edges)) + " edges"; !strings.Contains(stderr, want) {
		t.Fatalf("stderr %q, want %q", stderr, want)
	}
}
