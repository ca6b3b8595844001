package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
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
