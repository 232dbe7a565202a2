package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// runFixture loads testdata/<name> the way leasevet loads any package, runs
// the analyzer over it through RunSuite (so fixtures exercise production's
// //lint:allow filter), and matches the findings against
// `// want "regexp"` comments: every diagnostic must match a want on its
// line, and every want must be matched. Multiple expectations on one line
// are written as `// want "re1" "re2"`.
func runFixture(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", name), []string{"."})
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	if len(pkgs) != 1 || len(pkgs[0].Files) == 0 {
		t.Fatalf("fixture %s: loaded %d packages, want 1 with Go files", name, len(pkgs))
	}

	wants := collectWants(t, pkgs[0])
	for _, d := range RunSuite(pkgs, []*Analyzer{a}, SuiteOptions{}).Diagnostics {
		key := fileLine{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.re)
			}
		}
	}
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// Want expectations quote their regexp in backticks or double quotes:
// `// want `+"`re`"+` or // want "re1" "re2".
var (
	wantRe    = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")
	wantArgRe = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")
)

func collectWants(t *testing.T, pkg *Package) map[fileLine][]*want {
	t.Helper()
	out := make(map[fileLine][]*want)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fileLine{pos.Filename, pos.Line}
				for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
					pattern := arg[1]
					if pattern == "" {
						pattern = arg[2]
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pattern, err)
					}
					out[key] = append(out[key], &want{re: re})
				}
			}
		}
	}
	return out
}

// loadModule writes a throwaway module (file name -> source, names may
// carry a directory) and loads all of it, for tests that don't warrant a
// testdata directory.
func loadModule(t *testing.T, modPath string, files map[string]string) []*Package {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module " + modPath + "\n\ngo 1.23\n"
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pkgs, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return pkgs
}

// loadSource loads one source file as the package modPath.
func loadSource(t *testing.T, modPath, src string) *Package {
	t.Helper()
	return loadModule(t, modPath, map[string]string{"src.go": src})[0]
}
