package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc statically pins the zero-alloc wire path: no allocating construct
// may appear in any function reachable from a //lint:hotpath-annotated root
// (wire.AppendEncode and ReadFrameBuf, the transport's enqueue, the flusher
// loop). `make bench-wirepath` gates the same property dynamically — 0
// allocs/op on BenchmarkWirePath/append and BenchmarkBatchedSend — but a
// benchmark only samples the paths it drives; the reachability closure
// covers every function the hot roots can reach, through any call depth.
//
// Allocating constructs flagged:
//
//   - make / new
//   - append into a different slice than its source (self-appends,
//     `x = append(x, ...)` and `x = append(x[:0], ...)`, reuse capacity in
//     steady state and are the pooled-buffer idiom — allowed)
//   - composite literals that escape (&T{...}) or are reference-kinded
//     (slice/map literals); plain value struct literals are free
//   - closure literals and `go` statements
//   - known-allocating stdlib calls (fmt.Errorf, fmt.Sprintf, errors.New, ...)
//   - string(...) / []byte(...) conversions
//   - taking the address of a local variable (escapes it to the heap)
//   - literal arguments boxed into interface parameters of in-module calls
//
// Cold error branches on the hot path (frame-corruption paths that return
// fmt.Errorf) are the expected //lint:allow sites.
var HotAlloc = &Analyzer{
	Name:     "hotalloc",
	Doc:      "no allocating constructs reachable from //lint:hotpath roots",
	RunGraph: runHotAlloc,
}

// allocExternal names stdlib calls that always allocate their result.
var allocExternal = map[string]bool{
	"fmt.Errorf":      true,
	"fmt.Sprintf":     true,
	"fmt.Sprint":      true,
	"fmt.Sprintln":    true,
	"errors.New":      true,
	"errors.Join":     true,
	"strings.Join":    true,
	"strings.Repeat":  true,
	"strings.Builder": true,
	"bytes.Clone":     true,
}

func runHotAlloc(p *GraphPass) {
	parents := hotClosure(p.Graph)
	for n := range parents {
		checkHotNode(p, parents, n)
	}
}

// hotClosure is everything reachable from the //lint:hotpath roots. A
// goroutine spawned from a hot function is not itself on the hot path
// (EdgeGo excluded) — but the spawn is flagged by checkHotNode. Closure
// references are included: a closure created on the hot path may be invoked
// there.
func hotClosure(g *Graph) map[*FuncNode]Edge {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	return g.Reachable(roots, ReachOpts{Call: true, Defer: true, Ref: true, OverApprox: true})
}

// HotSet exposes the hotalloc reachability closure (node display names,
// "pkgpath.name") for the coverage test that proves the BenchmarkWirePath
// call path is inside it.
func HotSet(g *Graph) map[string]bool {
	out := make(map[string]bool)
	for n := range hotClosure(g) {
		out[n.String()] = true
	}
	return out
}

func checkHotNode(p *GraphPass, parents map[*FuncNode]Edge, n *FuncNode) {
	path := CallPath(parents, n)
	report := func(pos token.Pos, format string, args ...any) {
		p.ReportNodef(n, pos, "hot path ("+path+"): "+format, args...)
	}

	// First pass: collect append calls that recycle their own storage.
	selfAppend := map[*ast.CallExpr]bool{}
	inspectOwn(n, func(node ast.Node) {
		as, ok := node.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return
		}
		if exprString(as.Lhs[0]) == exprString(call.Args[0]) {
			selfAppend[call] = true
		}
	})

	inspectOwn(n, func(node ast.Node) {
		switch v := node.(type) {
		case *ast.GoStmt:
			report(v.Pos(), "go statement spawns a goroutine (stack + closure allocation)")
		case *ast.FuncLit:
			report(v.Pos(), "closure literal allocates (captured variables escape)")
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return
			}
			switch operand := v.X.(type) {
			case *ast.CompositeLit:
				report(v.Pos(), "&%s{...} escapes to the heap", exprString(operand.Type))
			case *ast.Ident:
				report(v.Pos(), "&%s takes the address of a local (heap escape)", operand.Name)
			}
		case *ast.CompositeLit:
			checkHotCompositeLit(report, n, v)
		case *ast.CallExpr:
			checkHotCall(p, report, n, v, selfAppend)
		}
	})
}

// checkHotCompositeLit flags reference-kinded literals; value struct
// literals are stack-built and free.
func checkHotCompositeLit(report func(token.Pos, string, ...any), n *FuncNode, lit *ast.CompositeLit) {
	if lit.Type == nil {
		return // nested literal; the outer one is judged
	}
	switch n.Pkg.Info.TypeOf(lit).Underlying().(type) {
	case *types.Slice, *types.Map:
		report(lit.Pos(), "%s literal allocates", exprString(lit.Type))
	}
}

func checkHotCall(p *GraphPass, report func(token.Pos, string, ...any), n *FuncNode, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool) {
	g, info := p.Graph, n.Pkg.Info
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok && info.Types[fun].IsBuiltin() {
		switch id.Name {
		case "make":
			report(call.Pos(), "make(%s, ...) allocates", exprString(callTypeArg(call)))
		case "new":
			report(call.Pos(), "new(%s) allocates", exprString(callTypeArg(call)))
		case "append":
			if !selfAppend[call] {
				report(call.Pos(), "append into a different slice may grow a new backing array; only self-appends (x = append(x, ...)) reuse capacity")
			}
		}
		return
	}
	if info.Types[fun].IsType() && len(call.Args) == 1 {
		// A conversion between string and byte/rune slice copies; every
		// other one (string(namedStringType), []byte(alreadyASlice)) is a
		// free change of type.
		to, from := info.TypeOf(call).Underlying(), info.TypeOf(call.Args[0]).Underlying()
		if _, ok := from.(*types.Slice); ok && isString(to) {
			report(call.Pos(), "string(...) of a byte/rune slice copies and allocates")
		}
		if _, ok := to.(*types.Slice); ok && isString(from) {
			report(call.Pos(), "[]byte(...) conversion of a string copies and allocates")
		}
		return
	}
	// Known-allocating external calls, resolved from the graph's edges.
	for _, e := range g.EdgesAt(call) {
		if e.Callee == nil && allocExternal[e.Target] {
			report(call.Pos(), "%s allocates", e.Target)
			return
		}
	}
	// Literal arguments boxed into interface parameters of in-module
	// callees. Pointer-shaped values ride in the interface word for free;
	// literals need a heap box. (Identifier args are skipped — whether one
	// escapes into a box is the compiler's escape analysis to decide, not
	// the type's; err toward silence.)
	for _, e := range g.EdgesAt(call) {
		if e.Callee == nil || e.OverApprox {
			continue
		}
		// Method call through a selector: the receiver is not in params.
		params := e.Callee.Signature().Params()
		for i, arg := range call.Args {
			if i >= params.Len() {
				break
			}
			if !types.IsInterface(params.At(i).Type()) {
				continue
			}
			switch a := arg.(type) {
			case *ast.BasicLit:
				report(a.Pos(), "literal boxed into interface parameter %q of %s allocates", params.At(i).Name(), e.Target)
			case *ast.CompositeLit:
				report(a.Pos(), "composite literal boxed into interface parameter %q of %s allocates", params.At(i).Name(), e.Target)
			}
		}
		break
	}
}

func isString(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// callTypeArg returns make/new's type argument for diagnostics.
func callTypeArg(call *ast.CallExpr) ast.Expr {
	if len(call.Args) > 0 {
		return call.Args[0]
	}
	return &ast.Ident{Name: "?"}
}

// inspectOwn walks a node's own body, seeing nested function literals as
// nodes but not descending into them — each literal is its own graph node
// and is checked separately if reachable.
func inspectOwn(n *FuncNode, visit func(ast.Node)) {
	body := n.Body()
	if body == nil {
		return
	}
	ast.Inspect(body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			visit(lit)
			return false
		}
		if node != nil {
			visit(node)
		}
		return true
	})
}
