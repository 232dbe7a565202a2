package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// Three tests run the whole repository through leasevet; they share one load
// of it (packages are read-only once loaded).
func init() {
	repo := sync.OnceValues(func() ([]*lint.Package, error) {
		return lint.Load("../..", []string{"./..."})
	})
	load = func(dir string, patterns []string) ([]*lint.Package, error) {
		if dir == "../.." && len(patterns) == 1 && patterns[0] == "./..." {
			return repo()
		}
		return lint.Load(dir, patterns)
	}
}

// TestRepoIsClean is the smoke test `make lint` relies on: the committed
// repository must produce zero findings.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", "../.."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("clean run printed findings:\n%s", stdout.String())
	}
}

// TestFailsOnViolation builds a throwaway module whose path puts it inside
// clockcheck's scope and plants a wall-clock read; leasevet must exit
// non-zero and name the call.
func TestFailsOnViolation(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro/internal/server\n\ngo 1.22\n")
	write("bad.go", `package server

import "time"

func Stamp() time.Time { return time.Now() }
`)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "time.Now") || !strings.Contains(stdout.String(), "clockcheck") {
		t.Fatalf("finding does not name the violation:\n%s", stdout.String())
	}
}

// TestAllowSuppresses plants the same violation with the escape hatch.
func TestAllowSuppresses(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module repro/internal/server\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package server

import "time"

func Stamp() time.Time {
	//lint:allow clockcheck — test fixture
	return time.Now()
}
`
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0 (allow must suppress)\nstdout:\n%s", code, stdout.String())
	}
}

// TestListFlag pins the suite: exactly these four analyzers, in this order.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "clockcheck ctxclean hotalloc lockflow"; got != want {
		t.Errorf("-list names %q, want %q:\n%s", got, want, stdout.String())
	}
}

func TestOnlyFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 for unknown analyzer", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-only", "hotalloc", "-dir", "../..", "repro/internal/wire"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
}

// violationModule plants a wall-clock read in a throwaway module scoped as
// repro/internal/server, for exercising output modes on a known finding.
func violationModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module repro/internal/server\n\ngo 1.22\n")
	write("bad.go", `package server

import "time"

func Stamp() time.Time { return time.Now() }
`)
	return dir
}

// TestJSONOutput pins the CI artifact format: findings as a JSON array with
// stable field names, exit 1.
func TestJSONOutput(t *testing.T) {
	dir := violationModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-json", "."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var findings []map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) != 1 {
		t.Fatalf("findings = %d, want 1: %s", len(findings), stdout.String())
	}
	f := findings[0]
	if f["analyzer"] != "clockcheck" {
		t.Errorf("analyzer = %v, want clockcheck", f["analyzer"])
	}
	for _, key := range []string{"file", "line", "column", "message"} {
		if _, ok := f[key]; !ok {
			t.Errorf("finding missing %q field: %v", key, f)
		}
	}

	// A clean run must still print a valid (empty) array.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", "../..", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean repo exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	findings = nil
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil || len(findings) != 0 {
		t.Fatalf("clean -json output not an empty array: %v\n%s", err, stdout.String())
	}
}

// TestStaleAllowFailsDefaultRun: a //lint:allow that suppresses nothing is a
// finding of the default run (analyzer staleallow, exit 1) — the report the
// removed -fix-allows flag used to filter out of this same output.
func TestStaleAllowFailsDefaultRun(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module repro/internal/server\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := `package server

//lint:allow clockcheck — rotted: nothing below reads the wall clock anymore
func Quiet() {}
`
	if err := os.WriteFile(filepath.Join(dir, "ok.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "suppresses nothing") || !strings.Contains(stdout.String(), "(staleallow)") {
		t.Errorf("stale allow not reported:\n%s", stdout.String())
	}
}

// TestGraphFlag dumps the call graph: the hot wire path must appear as
// resolved edges.
func TestGraphFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", "../..", "-graph", "repro/internal/wire"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "repro/internal/wire.AppendEncode -> repro/internal/wire.(*encoder).str [call]") {
		t.Errorf("-graph output missing the AppendEncode -> str edge:\n%.2000s", out)
	}
}

// TestTimingFlag reports the load's and each analyzer's wall time on stderr
// without touching the findings contract on stdout: a load row, then one row
// per analyzer.
func TestTimingFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", "../..", "-timing"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		rows = append(rows, strings.Fields(line)[1])
	}
	if got, want := strings.Join(rows, " "), "load clockcheck ctxclean hotalloc lockflow"; got != want {
		t.Errorf("-timing rows %q, want %q:\n%s", got, want, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean -timing run printed findings:\n%s", stdout.String())
	}
}
