package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // gc export data, compiled into the local build cache
	DepOnly    bool   // a dependency of the patterns, not matched by them
	Module     *struct{ Main bool }
}

// Load resolves package patterns (e.g. "./...") relative to dir with the go
// tool and parses and type-checks the matched packages' non-test Go files.
// Test files are deliberately excluded: tests drive scenarios with the wall
// clock and raw goroutines by design, and the invariants leasevet enforces
// are about the production lease stack.
//
// `go list -export -deps` prints every dependency before its importers, each
// with the export data the compiler left in the build cache. Packages of the
// main module are checked from source in that order — so one types.Object
// stands for a declaration at every use across packages, which is what the
// call graph keys on — and everything else (the standard library) is imported
// from its export file. Nothing is downloaded and no tool beyond `go` runs.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,DepOnly,Module", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}

	fset := token.NewFileSet()
	exports := make(map[string]string)
	imp := &moduleImporter{source: make(map[string]*types.Package)}
	imp.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})

	var pkgs []*Package
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %v", err)
		}
		if lp.Module == nil || !lp.Module.Main {
			exports[lp.ImportPath] = lp.Export
			continue
		}
		pkg, err := checkDir(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		imp.source[lp.ImportPath] = pkg.Types
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// moduleImporter serves the packages already checked from source and falls
// back to export data for the rest.
type moduleImporter struct {
	source map[string]*types.Package
	gc     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg := m.source[path]; pkg != nil {
		return pkg, nil
	}
	return m.gc.Import(path)
}

// checkDir parses one package's files, with comments (needed for
// //lint:allow), and type-checks them.
func checkDir(fset *token.FileSet, imp types.Importer, lp listedPackage) (*Package, error) {
	pkg := &Package{Path: lp.ImportPath, Fset: fset, Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %v", name, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	var err error
	pkg.Types, err = (&types.Config{Importer: imp}).Check(lp.ImportPath, fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %v", lp.ImportPath, err)
	}
	return pkg, nil
}
