package lint

import (
	"sync"
	"testing"
)

// loadRepo loads the real repository once per test binary.
var loadRepo = sync.OnceValues(func() ([]*Package, error) {
	return Load("../..", []string{"./..."})
})

// TestRepoIsClean runs the full scoped suite over the real repository — the
// same check `make lint` performs. The repo must stay clean: a finding here
// either reveals a real violation (fix it) or an analyzer false positive
// (fix the analyzer, or annotate the site with //lint:allow and a reason).
func TestRepoIsClean(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern resolution looks broken", len(pkgs))
	}
	// Full-suite options, exactly as cmd/leasevet runs it: scoped, with
	// stale-//lint:allow detection — so a rotted allow fails this test too.
	res := RunSuite(pkgs, Analyzers(), SuiteOptions{Scoped: true, StaleAllows: true})
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
}

// TestHotAllocCoversWirePath proves the acceptance property behind hotalloc:
// the static closure rooted at the //lint:hotpath annotations contains every
// function on the BenchmarkWirePath/append call path (AppendEncode and all
// encoder methods) and the batched transport path it feeds
// (enqueue, flushLoop → writeFrame, ReadFrameBuf). `make
// bench-wirepath` samples these paths dynamically; this test pins that the
// analyzer watches all of them, including ones a benchmark input set might
// not drive.
func TestHotAllocCoversWirePath(t *testing.T) {
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	g := BuildGraph(pkgs)
	hot := HotSet(g)
	if len(hot) == 0 {
		t.Fatal("hot closure is empty; //lint:hotpath roots lost")
	}
	for _, name := range []string{
		"repro/internal/wire.AppendEncode",
		"repro/internal/transport.(*tcpConn).enqueue",
		"repro/internal/transport.(*tcpConn).writeFrame",
		"repro/internal/transport.(*tcpConn).flushLoop",
		"repro/internal/wire.ReadFrameBuf",
	} {
		if !hot[name] {
			t.Errorf("%s not in the hot closure", name)
		}
	}
	// Every encoder method is on the append path; enumerate them from the
	// graph so a newly added method can't silently escape coverage.
	checked := 0
	for _, n := range g.Nodes {
		if n.Pkg.Path == "repro/internal/wire" && n.RecvType == "encoder" {
			checked++
			if !hot[n.String()] {
				t.Errorf("encoder method %s not in the hot closure", n)
			}
		}
	}
	if checked < 8 {
		t.Errorf("only %d encoder methods found; graph indexing looks broken", checked)
	}
}

// TestLoadExcludesTests verifies the loader's deliberate exclusion of
// _test.go files: tests drive scenarios with wall clocks and raw goroutines
// by design.
func TestLoadExcludesTests(t *testing.T) {
	pkgs, err := Load("../..", []string{"repro/internal/client"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("packages = %d, want 1", len(pkgs))
	}
	for _, f := range pkgs[0].Files {
		name := pkgs[0].Fset.Position(f.Pos()).Filename
		if len(name) > 8 && name[len(name)-8:] == "_test.go" {
			t.Errorf("loader included test file %s", name)
		}
	}
}
