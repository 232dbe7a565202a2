// Package lint implements leasevet: a suite of project-specific static
// analyzers that mechanically enforce the lease stack's hand-written
// disciplines — clock injection, goroutine shutdown wiring, the zero-alloc
// wire path, and the shard-locking order with nothing blocking under a shard
// mutex.
// The invariants themselves are argued in DESIGN.md; each analyzer turns
// one of those arguments into a build-time check (`make lint`).
//
// The suite is deliberately self-contained: it is built on the standard
// library's go/ast, go/parser and go/types only (no golang.org/x/tools
// dependency), mirroring the shape of a go/analysis pass — an Analyzer with
// a Run func over a Pass — so it can run in hermetic build environments.
// Types come from go/types (load.go); what the analyzers look for is
// project idiom (field names like `mu`, helpers like `allShards`), which is
// exactly what makes them precise here and useless anywhere else.
//
// A finding can be suppressed by annotating the offending line (or the
// line above it) with
//
//	//lint:allow <analyzer>[,<analyzer>...] — reason
//
// The reason is not parsed but is mandatory by convention: an allow
// without an argument for why the invariant does not apply is a review
// smell.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Diagnostic is one finding, with its position already resolved so callers
// can print it without the originating FileSet.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	PkgPath  string
	Files    []*ast.File
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one named invariant check. Single-function analyzers set Run
// and see one package at a time; interprocedural analyzers set RunGraph and
// see the whole-module call graph (their findings are scope- and
// allow-filtered per originating package afterwards). Exactly one of the two
// must be set.
type Analyzer struct {
	Name     string
	Doc      string
	Run      func(*Pass)
	RunGraph func(*GraphPass)
}

// GraphPass carries the whole-module call graph through one interprocedural
// analyzer.
type GraphPass struct {
	Analyzer *Analyzer
	Graph    *Graph

	diags []Diagnostic
}

// ReportNodef records a finding at pos, resolved against the file set of the
// package owning n.
func (p *GraphPass) ReportNodef(n *FuncNode, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      n.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full leasevet suite: two single-function analyzers
// and two interprocedural ones.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		ClockCheck,
		CtxClean,
		HotAlloc,
		LockFlow,
	}
}

// Package is one loaded package: parsed and type-checked. Every package of
// one Load shares its FileSet.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

type fileLine struct {
	file string
	line int
}

var allowRe = regexp.MustCompile(`^//lint:allow\s+([A-Za-z0-9_,-]+)`)

// --- shared syntactic helpers ---

// exprString renders a selector/ident chain compactly ("s.cfg.Obs").
// Non-chain expressions render their last component best-effort.
func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.ParenExpr:
		return exprString(v.X)
	case *ast.StarExpr:
		return exprString(v.X)
	case *ast.CallExpr:
		return exprString(v.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.SliceExpr:
		// A reslice aliases its operand: for the self-append checks,
		// `buf.B[:0]` is the same storage as `buf.B`.
		return exprString(v.X)
	default:
		return "?"
	}
}

// lastSelector reports the final component of a selector chain ("mu" for
// sh.mu), or the identifier name itself.
func lastSelector(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	case *ast.ParenExpr:
		return lastSelector(v.X)
	default:
		return ""
	}
}
