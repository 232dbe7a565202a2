package lint

import (
	"go/ast"
	"go/token"
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
	g := p.Graph
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	// A goroutine spawned from a hot function is not itself on the hot
	// path (EdgeGo excluded) — but the spawn is flagged below. Closure
	// references are included: a closure created on the hot path may be
	// invoked there.
	parents := g.Reachable(roots, ReachOpts{Call: true, Defer: true, Ref: true, OverApprox: true})
	for n := range parents {
		checkHotNode(p, parents, n)
	}
}

// HotSet exposes the hotalloc reachability closure (node display names,
// "pkgpath.name") for the coverage test that proves the BenchmarkWirePath
// call path is inside it.
func HotSet(g *Graph) map[string]bool {
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.HotPath {
			roots = append(roots, n)
		}
	}
	parents := g.Reachable(roots, ReachOpts{Call: true, Defer: true, Ref: true, OverApprox: true})
	out := make(map[string]bool, len(parents))
	for n := range parents {
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
			checkHotCompositeLit(p, report, n, v)
		case *ast.CallExpr:
			checkHotCall(p, report, n, v, selfAppend)
		}
	})
}

// checkHotCompositeLit flags reference-kinded literals; value struct
// literals are stack-built and free.
func checkHotCompositeLit(p *GraphPass, report func(token.Pos, string, ...any), n *FuncNode, lit *ast.CompositeLit) {
	if lit.Type == nil {
		return // nested literal; the outer one is judged
	}
	g := p.Graph
	pi := g.byPath[n.Pkg.Path]
	t := g.resolveTypeExpr(pi, n.File, lit.Type)
	switch g.underlying(t).Kind {
	case refSlice, refMap:
		report(lit.Pos(), "%s literal allocates", exprString(lit.Type))
	}
}

func checkHotCall(p *GraphPass, report func(token.Pos, string, ...any), n *FuncNode, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool) {
	g := p.Graph
	fun := call.Fun
	if pe, ok := fun.(*ast.ParenExpr); ok {
		fun = pe.X
	}
	if id, ok := fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			report(call.Pos(), "make(%s, ...) allocates", exprString(callTypeArg(call)))
			return
		case "new":
			report(call.Pos(), "new(%s) allocates", exprString(callTypeArg(call)))
			return
		case "append":
			if !selfAppend[call] {
				report(call.Pos(), "append into a different slice may grow a new backing array; only self-appends (x = append(x, ...)) reuse capacity")
			}
			return
		case "string":
			// string(namedStringType) is free; only string([]byte) /
			// string([]rune) copy.
			if convOperandIsSlice(g, n, call) {
				report(call.Pos(), "string(...) of a byte/rune slice copies and allocates")
			}
			return
		}
	}
	// []byte(...) conversion: allocates when converting from a string;
	// []byte(alreadyASlice) is a free type identity conversion.
	if at, ok := fun.(*ast.ArrayType); ok && at.Len == nil {
		if id, ok := at.Elt.(*ast.Ident); ok && id.Name == "byte" {
			if convOperandIsString(g, n, call) {
				report(call.Pos(), "[]byte(...) conversion of a string copies and allocates")
			}
			return
		}
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
	// literals need a heap box. (Identifier args are skipped — without full
	// type checking their concrete-ness is unknown; err toward silence.)
	for _, e := range g.EdgesAt(call) {
		if e.Callee == nil || e.OverApprox {
			continue
		}
		sig := g.signature(e.Callee)
		params := sig.params
		// Method call through a selector: the receiver is not in params.
		for i, arg := range call.Args {
			if i >= len(params) {
				break
			}
			pt := g.underlying(params[i].typ)
			if pt.Kind != refIface {
				continue
			}
			switch a := arg.(type) {
			case *ast.BasicLit:
				report(a.Pos(), "literal boxed into interface parameter %q of %s allocates", params[i].name, e.Target)
			case *ast.CompositeLit:
				report(a.Pos(), "composite literal boxed into interface parameter %q of %s allocates", params[i].name, e.Target)
			}
		}
		break
	}
}

// convOperandIsSlice reports whether a conversion's single operand is
// provably a slice. Without full type checking the resolution is structural:
// a slice expression always yields a slice, and identifiers are looked up in
// the enclosing function's signature. Everything else (selectors on
// type-switch variables, call results) resolves to "unknown", which the two
// conversion checks treat in the direction that errs toward silence — the
// dynamic bench-wirepath gate backstops what this misses.
func convOperandIsSlice(g *Graph, n *FuncNode, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	switch a := call.Args[0].(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		for _, p := range g.signature(n).params {
			if p.name == a.Name {
				return g.underlying(p.typ).Kind == refSlice
			}
		}
	}
	return false
}

// convOperandIsString reports whether a conversion's single operand is
// provably string-kinded: a string literal, or an identifier whose signature
// type has string underlying. Same err-toward-silence stance as
// convOperandIsSlice.
func convOperandIsString(g *Graph, n *FuncNode, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	switch a := call.Args[0].(type) {
	case *ast.BasicLit:
		return a.Kind == token.STRING
	case *ast.Ident:
		for _, p := range g.signature(n).params {
			if p.name == a.Name {
				u := g.underlying(p.typ)
				return u.Kind == refBasic && u.Name == "string"
			}
		}
	}
	return false
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
