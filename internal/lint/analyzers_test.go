package lint

import (
	"strings"
	"testing"
)

func TestClockCheckFixture(t *testing.T) { runFixture(t, ClockCheck, "clockcheck") }

func TestCtxCleanFixture(t *testing.T) { runFixture(t, CtxClean, "ctxclean") }

func TestHotAllocFixture(t *testing.T) { runFixture(t, HotAlloc, "hotalloc") }

func TestLockFlowFixture(t *testing.T) { runFixture(t, LockFlow, "lockflow") }

// TestLockOrderFixture runs lockflow over the lock-order cases: two shard
// mutexes at once, ranges that lock shards outside allShards(), and blocking
// sends, receives and transport calls inside a locked section.
func TestLockOrderFixture(t *testing.T) { runFixture(t, LockFlow, "lockflow/order") }

// TestClockCheckRenamedImport verifies the analyzer follows a renamed time
// import and ignores unrelated packages that happen to be called "time".
func TestClockCheckRenamedImport(t *testing.T) {
	pkgs := loadModule(t, "fixture", map[string]string{
		"renamed/p.go": `package p

import stdtime "time"

func f() { _ = stdtime.Now() }
`,
		"other/time/time.go": `package time

func Now() int { return 0 }
`,
		"other/p.go": `package p

import "fixture/other/time"

func f() { _ = time.Now() }
`,
	})
	diags := RunSuite(pkgs, []*Analyzer{ClockCheck}, SuiteOptions{}).Diagnostics
	if len(diags) != 1 || !strings.HasSuffix(diags[0].Pos.Filename, "renamed/p.go") {
		t.Fatalf("diagnostics = %v, want exactly the renamed stdlib import's call", diags)
	}
}

// TestAllowRequiresMatchingAnalyzer verifies //lint:allow only suppresses
// the named analyzer.
func TestAllowRequiresMatchingAnalyzer(t *testing.T) {
	pkg := loadSource(t, "fixture/allow", `package p

import "time"

func f() {
	//lint:allow lockflow — wrong analyzer, must not suppress
	time.Sleep(time.Second)
}
`)
	if diags := RunSuite([]*Package{pkg}, []*Analyzer{ClockCheck}, SuiteOptions{}).Diagnostics; len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want 1 (allow for another analyzer must not apply): %v", len(diags), diags)
	}
}

// TestScoped pins the analyzer-to-package policy: where each discipline is
// enforced and, as importantly, where it is not.
func TestScoped(t *testing.T) {
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"clockcheck", "repro/internal/server", true},
		{"clockcheck", "repro/internal/core", true},
		{"clockcheck", "repro/internal/client", true},    // a holder's deadline check is Clock.Mono, never time.Since/Until
		{"clockcheck", "repro/internal/clock", false},    // the one legitimate wall-clock layer
		{"clockcheck", "repro/internal/transport", true}, // batcher code is checked; raw-socket sites use //lint:allow
		{"clockcheck", "repro/cmd/leased", false},        // daemons stamp process lifetimes
		{"clockcheck", "repro/internal/health", true},    // flight timestamps must replay under sim clocks
		{"clockcheck", "repro/internal/cost", true},      // the load sampler ticks on the injected clock
		{"clockcheck", "repro/internal/history", true},   // the oracle reads only its caller's clock
		{"ctxclean", "repro/internal/server", true},
		{"ctxclean", "repro/internal/sim", false},      // simulation steps synchronously
		{"ctxclean", "repro/internal/health", true},    // the engine's tick goroutine must stop cleanly
		{"ctxclean", "repro/internal/cost", true},      // a loop spawned here must drain on Close
		{"ctxclean", "repro/internal/transport", true}, // flusher/delivery goroutines must drain on Close
		{"hotalloc", "repro/internal/wire", true},      // the //lint:hotpath roots live here
		{"hotalloc", "repro/internal/transport", true}, // ... and in the batcher
		{"hotalloc", "repro/internal/server", false},   // grant logic is allowed to allocate
		{"lockflow", "repro/internal/server", true},
		{"lockflow", "repro/internal/proxy", true},
		{"lockflow", "repro/internal/client", false}, // c.mu guards one client's cache, not a shard
		{"lockflow", "repro/internal/wire", false},   // no shard mutexes in the codec
		{"lockflow", "other/module", false},
		{"nosuch", "repro/internal/server", false},
	}
	for _, c := range cases {
		if got := Scoped(c.analyzer, c.pkg); got != c.want {
			t.Errorf("Scoped(%q, %q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
