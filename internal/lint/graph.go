package lint

// This file is the interprocedural layer under leasevet: a whole-module call
// graph over go/types. Two invariants are properties of call *chains* —
// blocking calls reached through helpers while a shard mutex is held, and
// allocations buried calls deep in the wire path — so the graph analyzers
// (lockflow, hotalloc) need to know who calls whom across package boundaries.
//
// The type checker has already decided what every call site names
// (Info.Uses, Info.Selections — embedding, promotion, shadowing and generic
// instantiation included), so there are two tiers of edge and one kind of
// site that gets none. The soundness stance, documented in DESIGN.md §13:
//
//   - PRECISE: the site names a function or concrete method; the edge goes
//     to its declaration's node, or is a leaf when that is outside the
//     module (the stdlib is not traversed; analyzers name the external
//     calls they care about);
//   - INTERFACE DISPATCH: the site names an interface method; it is
//     OVER-APPROXIMATED to that method on every package-level module type
//     that implements the interface (types.Implements) — any of them may
//     be the dynamic receiver;
//   - calls of func-typed values and reflection are leaves: where a func
//     value was made is an EdgeRef, where it is called is not followed.
//
// Over-approximation errs toward reporting for the reachability analyzers
// (a finding can be silenced with //lint:allow plus a reason); the leaves err
// toward silence, matching the PR 5 house style.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// EdgeKind classifies how control may pass from caller to callee.
type EdgeKind int

const (
	// EdgeCall is a plain (possibly deferred-free) function or method call.
	EdgeCall EdgeKind = iota
	// EdgeGo spawns the callee in a new goroutine; lock and hot-path
	// contexts do not propagate across it.
	EdgeGo
	// EdgeDefer defers the callee to function exit.
	EdgeDefer
	// EdgeRef creates or references the callee as a value (a closure
	// literal, a method value) without calling it at this site; it may run
	// later.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeGo:
		return "go"
	case EdgeDefer:
		return "defer"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// Edge is one resolved call site.
type Edge struct {
	Kind   EdgeKind
	Callee *FuncNode // nil when the callee is outside the module
	// Target is the display name of the callee: the node's name, or
	// types.Func.FullName for an external one ("fmt.Errorf",
	// "(*bufio.Writer).Flush").
	Target string
	// Site is the call expression (nil for references that are not calls)
	// and Pos its position.
	Site *ast.CallExpr
	Pos  token.Pos
	// OverApprox marks interface-dispatch edges: the callee is one of the
	// module types implementing the interface the site calls through.
	OverApprox bool
}

// FuncNode is one function-shaped body in the graph: a declaration or a
// function literal.
type FuncNode struct {
	Pkg  *Package
	File *ast.File
	// Name is the display name: "AppendEncode", "(*tcpConn).enqueue",
	// "flushLoop.func" for literals.
	Name string
	// RecvType is the name of the receiver's named type for methods.
	RecvType string
	Decl     *ast.FuncDecl
	Lit      *ast.FuncLit
	Parent   *FuncNode // enclosing function for literals
	Edges    []Edge
	// HotPath records a //lint:hotpath annotation on the declaration.
	HotPath bool
}

// Body returns the function's block, whichever form it is.
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// Pos returns the declaration position.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Position resolves a pos from this node's file set.
func (n *FuncNode) Position(pos token.Pos) token.Position {
	return n.Pkg.Fset.Position(pos)
}

// String renders "pkgpath.Name".
func (n *FuncNode) String() string { return n.Pkg.Path + "." + n.Name }

// Signature returns the function's checked type; for a method it carries the
// receiver.
func (n *FuncNode) Signature() *types.Signature {
	if n.Decl != nil {
		return n.Pkg.Info.Defs[n.Decl.Name].Type().(*types.Signature)
	}
	return n.Pkg.Info.TypeOf(n.Lit).(*types.Signature)
}

// Graph is the whole-module call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*FuncNode

	byFunc map[*types.Func]*FuncNode
	// concrete lists the module's package-level non-interface named types in
	// source order: the candidate receivers of interface dispatch.
	concrete []*types.Named
	// edgesBySite lets statement-level analyzers (lockflow) look up what a
	// call expression resolved to.
	edgesBySite map[*ast.CallExpr][]Edge
	// fileToPkg maps a position's filename back to its package, for scope
	// and allow filtering of graph findings.
	fileToPkg map[string]*Package
}

// PackageOf maps a resolved diagnostic filename back to its package.
func (g *Graph) PackageOf(filename string) *Package { return g.fileToPkg[filename] }

// EdgesAt returns the edges resolved for one call expression.
func (g *Graph) EdgesAt(call *ast.CallExpr) []Edge { return g.edgesBySite[call] }

// --- graph construction ---

// BuildGraph indexes every loaded package's declarations and resolves a call
// graph over them. It cannot fail: the packages are already type-checked.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		Pkgs:        pkgs,
		byFunc:      make(map[*types.Func]*FuncNode),
		edgesBySite: make(map[*ast.CallExpr][]Edge),
		fileToPkg:   make(map[string]*Package),
	}
	// Pass 1: a node per declared body, and the dispatch candidates.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			g.fileToPkg[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if sp, ok := spec.(*ast.TypeSpec); ok {
							named, ok := pkg.Info.Defs[sp.Name].Type().(*types.Named)
							if ok && !types.IsInterface(named) {
								g.concrete = append(g.concrete, named)
							}
						}
					}
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					node := &FuncNode{Pkg: pkg, File: f, Decl: d, Name: d.Name.Name, HotPath: hotPath(d)}
					if recv := node.Signature().Recv(); recv != nil {
						if named := namedOf(recv.Type()); named != nil {
							node.RecvType = named.Obj().Name()
							node.Name = "(*" + node.RecvType + ")." + d.Name.Name
						}
					}
					g.byFunc[pkg.Info.Defs[d.Name].(*types.Func)] = node
					g.Nodes = append(g.Nodes, node)
				}
			}
		}
	}
	// Pass 2: resolve the declared bodies. Literal nodes are appended, and
	// walked, as the walk of their enclosing declaration finds them.
	decls := g.Nodes
	for _, node := range decls {
		(&graphWalker{g: g, node: node}).walk(node.Body())
	}
	return g
}

// hotPath reports whether a declaration's doc comment has a //lint:hotpath
// marker line.
func hotPath(d *ast.FuncDecl) bool {
	if d.Doc == nil {
		return false
	}
	for _, c := range d.Doc.List {
		if f := strings.Fields(c.Text); len(f) > 0 && f[0] == "//lint:hotpath" {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := types.Unalias(t).(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// --- body walking: call resolution ---

type graphWalker struct {
	g    *Graph
	node *FuncNode
}

// walk resolves every call under root into edges, every function literal
// into a node of its own, and every function or method used as a value
// (`state.NewSource(s.StateSnapshot)`) into an EdgeRef.
func (w *graphWalker) walk(root ast.Node) {
	ast.Inspect(root, func(nd ast.Node) bool {
		switch v := nd.(type) {
		case *ast.GoStmt:
			w.call(v.Call, EdgeGo)
		case *ast.DeferStmt:
			w.call(v.Call, EdgeDefer)
		case *ast.CallExpr:
			w.call(v, EdgeCall)
		case *ast.FuncLit:
			w.funcLit(v, EdgeRef, nil)
		case *ast.SelectorExpr:
			w.ref(v)
			w.walk(v.X)
		case *ast.Ident:
			w.ref(v)
			return true
		default:
			return true
		}
		return false // the case walked what it needed of the subtree
	})
}

// ref records an EdgeRef to each module function fun may denote: it is not
// called here, but it may run later.
func (w *graphWalker) ref(fun ast.Expr) {
	for _, e := range w.resolve(fun, Edge{Kind: EdgeRef, Pos: fun.Pos()}) {
		if e.Callee != nil {
			w.addEdge(e)
		}
	}
}

// funcLit creates the literal's node and an edge of the given kind, and
// walks the literal's body as that node.
func (w *graphWalker) funcLit(lit *ast.FuncLit, kind EdgeKind, call *ast.CallExpr) {
	child := &FuncNode{
		Pkg:    w.node.Pkg,
		File:   w.node.File,
		Name:   w.node.Name + ".func",
		Lit:    lit,
		Parent: w.node,
	}
	w.g.Nodes = append(w.g.Nodes, child)
	w.addEdge(Edge{Kind: kind, Callee: child, Target: child.Name, Site: call, Pos: lit.Pos()})
	(&graphWalker{g: w.g, node: child}).walk(lit.Body)
}

func (w *graphWalker) addEdge(e Edge) {
	w.node.Edges = append(w.node.Edges, e)
	if e.Site != nil {
		w.g.edgesBySite[e.Site] = append(w.g.edgesBySite[e.Site], e)
	}
}

// call resolves one call expression into edges and walks its operands.
func (w *graphWalker) call(call *ast.CallExpr, kind EdgeKind) {
	for _, arg := range call.Args {
		w.walk(arg)
	}
	fun := ast.Unparen(call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred/spawned) literal.
		w.funcLit(lit, kind, call)
		return
	}
	if tv := w.node.Pkg.Info.Types[fun]; tv.IsType() || tv.IsBuiltin() {
		return // conversion or builtin: operands walked, no edge
	}
	edges := w.resolve(fun, Edge{Kind: kind, Site: call, Pos: call.Pos()})
	switch f := fun.(type) {
	case *ast.SelectorExpr:
		w.walk(f.X) // the receiver may itself be a call: a.b().c()
	case *ast.Ident:
	default:
		if edges == nil {
			w.walk(fun) // a computed func value: table[i](), f()()
		}
	}
	if edges == nil {
		// A func-typed variable or field; where it was made was an EdgeRef.
		edges = []Edge{{Kind: kind, Target: exprString(fun) + " (dynamic)", Site: call, Pos: call.Pos()}}
	}
	for _, e := range edges {
		w.addEdge(e)
	}
}

// resolve fills the edge template e once per function that fun may denote:
// the one function or concrete method the type checker bound it to, or, for
// an interface method, that method on every module type implementing the
// interface. It returns nil when fun does not name a function at all.
func (w *graphWalker) resolve(fun ast.Expr, e Edge) []Edge {
	info := w.node.Pkg.Info
	var obj types.Object
	var recv types.Type // static type of x in x.f
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if sel := info.Selections[f]; sel != nil {
			obj, recv = sel.Obj(), sel.Recv()
		} else {
			obj = info.Uses[f.Sel] // qualified identifier: pkg.Func
		}
	case *ast.IndexExpr: // explicit instantiation: f[T]
		return w.resolve(f.X, e)
	case *ast.IndexListExpr:
		return w.resolve(f.X, e)
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin() // the declaration behind a generic instantiation
	if n := w.g.byFunc[fn]; n != nil {
		e.Callee, e.Target = n, n.Name
		return []Edge{e}
	}
	// The interface dispatched through is the receiver's static type when
	// that is one (`transport.Conn.Close()` goes to the Close of connection
	// types, not every io.Closer in the module), else the interface that
	// declares the method (it was promoted through an embedded field).
	if r := fn.Signature().Recv(); r != nil && types.IsInterface(r.Type()) {
		if recv == nil || !types.IsInterface(recv) {
			recv = r.Type()
		}
		var edges []Edge
		for _, named := range w.g.concrete {
			ptr := types.NewPointer(named) // *T's method set holds T's too
			if !types.Implements(ptr, recv.Underlying().(*types.Interface)) {
				continue
			}
			m, _, _ := types.LookupFieldOrMethod(ptr, false, fn.Pkg(), fn.Name())
			if n := w.g.byFunc[m.(*types.Func).Origin()]; n != nil {
				e.Callee, e.Target, e.OverApprox = n, n.Name, true
				edges = append(edges, e)
			}
		}
		if edges != nil {
			return edges
		}
	}
	e.Target = fn.FullName()
	return []Edge{e}
}

// --- reachability ---

// ReachOpts selects which edge kinds a traversal follows.
type ReachOpts struct {
	Call, Go, Defer, Ref bool
	// OverApprox includes interface-dispatch edges.
	OverApprox bool
}

// Reachable computes the forward closure from roots. The returned parents
// map records one spanning-tree predecessor edge per reached node, for path
// reconstruction; roots map to a zero Edge.
func (g *Graph) Reachable(roots []*FuncNode, opts ReachOpts) map[*FuncNode]Edge {
	parents := make(map[*FuncNode]Edge)
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := parents[r]; !ok {
			parents[r] = Edge{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Edges {
			if e.Callee == nil {
				continue
			}
			if e.OverApprox && !opts.OverApprox {
				continue
			}
			switch e.Kind {
			case EdgeCall:
				if !opts.Call {
					continue
				}
			case EdgeGo:
				if !opts.Go {
					continue
				}
			case EdgeDefer:
				if !opts.Defer {
					continue
				}
			case EdgeRef:
				if !opts.Ref {
					continue
				}
			}
			if _, ok := parents[e.Callee]; ok {
				continue
			}
			parents[e.Callee] = Edge{Kind: e.Kind, Callee: n, Target: n.Name, Pos: e.Pos}
			queue = append(queue, e.Callee)
		}
	}
	return parents
}

// CallPath renders "root → a → b → n" from a Reachable parents map.
func CallPath(parents map[*FuncNode]Edge, n *FuncNode) string {
	var names []string
	for hop := 0; n != nil && hop < 32; hop++ {
		names = append(names, n.Name)
		p := parents[n]
		n = p.Callee
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}

// Dump writes the graph as sorted "caller -> callee [kind]" lines, for
// leasevet -graph debugging.
func (g *Graph) Dump(out io.Writer) {
	var lines []string
	for _, n := range g.Nodes {
		for _, e := range n.Edges {
			target := e.Target
			if e.Callee != nil {
				target = e.Callee.String()
			}
			suffix := ""
			if e.OverApprox {
				suffix = " (over-approx)"
			}
			lines = append(lines, fmt.Sprintf("%s -> %s [%s]%s", n.String(), target, e.Kind, suffix))
		}
	}
	sort.Strings(lines)
	prev := ""
	for _, l := range lines {
		if l == prev {
			continue
		}
		prev = l
		fmt.Fprintln(out, l)
	}
}
