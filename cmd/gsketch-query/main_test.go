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

// streamDir returns a directory holding a small text edge file r.txt.
func streamDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	var b strings.Builder
	for i := 0; i < 200; i++ {
		b.WriteString("1 2\n3 4\n5 6\n")
	}
	if err := os.WriteFile(filepath.Join(dir, "r.txt"), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func absent(t *testing.T, dir, name string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
		t.Fatalf("%s exists (stat: %v), want nothing written", name, err)
	}
}

// TestSaveWithGlobal: -save beside -global writes the Global Sketch's
// snapshot, and -load answers from it as the built sketch did, bounds and
// "global" label included.
func TestSaveWithGlobal(t *testing.T) {
	dir := streamDir(t)
	code, built, stderr := runMain(t, dir, "-stream", "r.txt", "-global", "-save", "g.gsk", "-bounds", "-edge", "1 2")
	if code != 0 || !strings.HasPrefix(built, "1 2 200 ") || !strings.HasSuffix(built, " global\n") {
		t.Fatalf("build and save: exit %d, answer %q, stderr %q", code, built, stderr)
	}
	code, loaded, stderr := runMain(t, dir, "-load", "g.gsk", "-bounds", "-edge", "1 2")
	if code != 0 || loaded != built {
		t.Fatalf("load: exit %d, answer %q, stderr %q; want 0 and %q", code, loaded, stderr, built)
	}
}

// TestSaveWithLoadRefused: -save beside -load used to be ignored; it is a
// usage error now. A -save beside -stream still writes a snapshot that
// -load answers from.
func TestSaveWithLoadRefused(t *testing.T) {
	dir := streamDir(t)
	code, built, stderr := runMain(t, dir, "-stream", "r.txt", "-save", "s.gsk", "-edge", "1 2")
	if code != 0 {
		t.Fatalf("build and save: exit %d, stderr %q", code, stderr)
	}
	code, loaded, stderr := runMain(t, dir, "-load", "s.gsk", "-edge", "1 2")
	if code != 0 || loaded != built {
		t.Fatalf("load: exit %d, answer %q, stderr %q; want 0 and %q", code, loaded, stderr, built)
	}

	code, stdout, stderr := runMain(t, dir, "-load", "s.gsk", "-save", "t.gsk", "-edge", "1 2")
	if code != 2 || !strings.Contains(stderr, "-save") || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2, nothing answered, and -save named", code, stdout, stderr)
	}
	absent(t, dir, "t.gsk")
}
