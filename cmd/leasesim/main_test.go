package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadWorkloadFromTraceFile(t *testing.T) {
	path := writeFile(t, "w.trace",
		"R 1.0 c1 s1 /a 100\nW 2.0 s1 /a 100\nR 3.0 c1 s1 /a 100\n")
	w, err := loadWorkload(path, "")
	if err != nil {
		t.Fatalf("loadWorkload: %v", err)
	}
	st := trace.Summarize(w.Trace)
	if st.Reads != 2 || st.Writes != 1 {
		t.Errorf("summary = %+v", st)
	}
}

func TestLoadWorkloadFromBUFile(t *testing.T) {
	path := writeFile(t, "bu.log",
		`cs18 790358517.5 1 "http://cs-www.bu.edu/a" 2009 0.5`+"\n"+
			`cs18 790358520.0 1 "http://cs-www.bu.edu/b" 1804 0.3`+"\n")
	w, err := loadWorkload("", path)
	if err != nil {
		t.Fatalf("loadWorkload: %v", err)
	}
	st := trace.Summarize(w.Trace)
	if st.Reads != 2 {
		t.Errorf("reads = %d, want 2", st.Reads)
	}
	// Synthetic writes may or may not land on a 2.5s trace; just check the
	// trace is sorted and valid.
	for i := 1; i < len(w.Trace); i++ {
		if w.Trace[i].Time.Before(w.Trace[i-1].Time) {
			t.Fatal("merged trace unsorted")
		}
	}
}

func TestLoadWorkloadMutuallyExclusive(t *testing.T) {
	if _, err := loadWorkload("a", "b"); err == nil {
		t.Fatal("both -trace and -bu accepted")
	}
}

func TestLoadWorkloadMissingFiles(t *testing.T) {
	if _, err := loadWorkload("/nonexistent/x.trace", ""); err == nil {
		t.Fatal("missing trace file accepted")
	}
	if _, err := loadWorkload("", "/nonexistent/bu.log"); err == nil {
		t.Fatal("missing BU file accepted")
	}
}

func TestLoadWorkloadBadContent(t *testing.T) {
	path := writeFile(t, "bad.trace", "Z nonsense\n")
	if _, err := loadWorkload(path, ""); err == nil {
		t.Fatal("malformed trace accepted")
	}
	bu := writeFile(t, "bad.bu", "no quotes here\n")
	if _, err := loadWorkload("", bu); err == nil {
		t.Fatal("malformed BU trace accepted")
	}
}

func TestAlgoListFlag(t *testing.T) {
	var a algoList
	if err := a.Set("lease(10)"); err != nil {
		t.Fatal(err)
	}
	if err := a.Set("volume(10,100)"); err != nil {
		t.Fatal(err)
	}
	if a.String() != "lease(10),volume(10,100)" {
		t.Errorf("String = %q", a.String())
	}
}

// TestReportPrintsARowPerAlgorithm: each algorithm's totals are printed as it
// finishes, which is how a long replay shows its progress.
func TestReportPrintsARowPerAlgorithm(t *testing.T) {
	w, err := loadWorkload(writeFile(t, "w.trace",
		"R 1.0 c1 s1 /a 100\nW 2.0 s1 /a 100\nR 3.0 c1 s1 /a 100\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := report(&out, w, []string{"lease(10)", "volume(10,100)"}, 1, false); err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		if !strings.HasPrefix(line, " ") {
			rows = append(rows, strings.Fields(line)[0])
		}
	}
	if len(rows) != 2 {
		t.Errorf("rows for %v, want one per algorithm:\n%s", rows, &out)
	}
	if err := report(&out, w, []string{"nosuch(1)"}, 0, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
