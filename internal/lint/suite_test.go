package lint

import (
	"strings"
	"testing"
)

// TestStaleAllowDetection pins the escape-hatch hygiene contract: an allow
// that suppresses a finding is silent, an allow that suppresses nothing is
// reported under the staleallow name, and an allow naming an analyzer the
// suite doesn't have is called out too.
func TestStaleAllowDetection(t *testing.T) {
	pkg := loadSource(t, "fixture/stale", `package p

import "time"

func used() time.Time {
	//lint:allow clockcheck — fixture: this one suppresses the Now below
	return time.Now()
}

//lint:allow clockcheck — fixture: nothing on the next line trips clockcheck
func stale() {}

//lint:allow nosuchanalyzer — fixture: unknown name
func unknown() {}
`)
	res := RunSuite([]*Package{pkg}, Analyzers(), SuiteOptions{StaleAllows: true})

	var staleMsgs []string
	for _, d := range res.Diagnostics {
		if d.Analyzer == "staleallow" {
			staleMsgs = append(staleMsgs, d.Message)
			continue
		}
		t.Errorf("unexpected non-staleallow diagnostic: %s", d)
	}
	if len(staleMsgs) != 2 {
		t.Fatalf("staleallow diagnostics = %d, want 2: %v", len(staleMsgs), staleMsgs)
	}
	joined := strings.Join(staleMsgs, "\n")
	if !strings.Contains(joined, "suppresses nothing") {
		t.Errorf("stale allow not reported: %v", staleMsgs)
	}
	if !strings.Contains(joined, "unknown analyzer nosuchanalyzer") {
		t.Errorf("unknown-analyzer allow not reported: %v", staleMsgs)
	}
}

// TestStaleAllowsOffUnderSubset mirrors the -only contract: with stale
// detection disabled, an allow for a deselected analyzer must not be
// reported even though it suppressed nothing this run.
func TestStaleAllowsOffUnderSubset(t *testing.T) {
	pkg := loadSource(t, "fixture/stale", `package p

//lint:allow clockcheck — legitimately idle when only ctxclean runs
func f() {}
`)
	res := RunSuite([]*Package{pkg}, []*Analyzer{CtxClean}, SuiteOptions{})
	for _, d := range res.Diagnostics {
		t.Errorf("unexpected diagnostic under subset run: %s", d)
	}
}

// TestSuiteTimings verifies every analyzer reports a timing entry and that
// pre-filter finding counts survive allow suppression (the timing shows the
// work done, the diagnostics show what escaped).
func TestSuiteTimings(t *testing.T) {
	pkg := loadSource(t, "fixture/timing", `package p

import "time"

func f() time.Time {
	//lint:allow clockcheck — fixture
	return time.Now()
}
`)
	res := RunSuite([]*Package{pkg}, Analyzers(), SuiteOptions{})
	if len(res.Timings) != len(Analyzers()) {
		t.Fatalf("timings = %d, want %d", len(res.Timings), len(Analyzers()))
	}
	byName := map[string]AnalyzerTiming{}
	for _, tm := range res.Timings {
		byName[tm.Name] = tm
	}
	if byName["clockcheck"].Findings != 1 {
		t.Errorf("clockcheck pre-filter findings = %d, want 1 (allow filtering must not hide the work)", byName["clockcheck"].Findings)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("suppressed finding leaked: %v", res.Diagnostics)
	}
}

// TestSuiteBuildsGraphOnlyWhenNeeded pins the cost model: single-function
// subsets skip graph construction, interprocedural runs share one graph.
func TestSuiteBuildsGraphOnlyWhenNeeded(t *testing.T) {
	pkg := loadSource(t, "fixture/graphneed", `package p

func f() {}
`)
	if res := RunSuite([]*Package{pkg}, []*Analyzer{ClockCheck, CtxClean}, SuiteOptions{}); res.Graph != nil {
		t.Errorf("graph built for a single-function-only run")
	}
	if res := RunSuite([]*Package{pkg}, []*Analyzer{HotAlloc}, SuiteOptions{}); res.Graph == nil {
		t.Errorf("graph missing from an interprocedural run")
	}
}
