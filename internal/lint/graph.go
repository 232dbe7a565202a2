package lint

// This file is the interprocedural layer under leasevet v2: a whole-module
// call-graph builder and the structural type resolver it rides on. PR 5's
// analyzers are single-function; the invariants that actually broke in later
// PRs — blocking calls reached through helpers while a shard mutex is held,
// allocations buried two calls deep in the wire path, snapshot code aliasing
// live table memory — are properties of call *chains*, so the graph
// analyzers (hotalloc, lockflow, spawnjoin, snapshotcopy) need to know who
// calls whom across package boundaries.
//
// The resolver is deliberately structural, not a full go/types pass: it
// reads types off parsed declarations (struct fields, function signatures,
// local assignments) across every loaded package, which resolves the
// project's own method calls precisely while leaving externally-typed
// expressions opaque. The soundness stance, documented in DESIGN.md §13:
//
//   - calls whose receiver type cannot be resolved, and calls through
//     in-module interfaces, are OVER-APPROXIMATED to every module method of
//     the same name (interface dispatch may reach any of them);
//   - calls into packages outside the module are leaves (the stdlib is not
//     traversed; analyzers name the external calls they care about);
//   - reflection and dynamic func values are ignored.
//
// Over-approximation errs toward reporting for the reachability analyzers
// (a finding can be silenced with //lint:allow plus a reason); the opaque
// external layer errs toward silence, matching the PR 5 house style.

import (
	"fmt"
	"go/ast"
	"go/token"
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
	// Target is the display name of the callee: the node's name, or the
	// qualified external name ("fmt.Errorf", "bufio.Writer.Flush").
	Target string
	// Site is the call expression (nil for bare closure-literal references)
	// and Pos its position in the caller's FileSet.
	Site *ast.CallExpr
	Pos  token.Pos
	// OverApprox marks edges added by over-approximation of dynamic
	// dispatch: the callee is every module method of the site's name.
	OverApprox bool
	// Weak further marks over-approximated edges whose receiver had no type
	// information at all (as opposed to a known in-module interface).
	// Name-only matching is the loosest tier — `x.After(y)` on an
	// unresolved time.Time matches clock's After — so analyzers whose
	// false-positive cost is high may skip weak edges while still following
	// genuine interface dispatch.
	Weak bool
}

// FuncNode is one function-shaped body in the graph: a declaration or a
// function literal.
type FuncNode struct {
	Pkg  *Package
	File *ast.File
	// Name is the display name: "AppendEncode", "(*tcpConn).enqueue",
	// "flushLoop.func1" for literals.
	Name string
	// RecvType is the local name of the receiver's named type for methods.
	RecvType string
	Decl     *ast.FuncDecl
	Lit      *ast.FuncLit
	Parent   *FuncNode // enclosing function for literals
	Edges    []Edge
	// HotPath and SnapshotRoot record //lint:hotpath and //lint:snapshotroot
	// annotations on the declaration.
	HotPath      bool
	SnapshotRoot bool

	sig *funcSig
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

// Graph is the whole-module call graph.
type Graph struct {
	Pkgs  []*Package
	Nodes []*FuncNode

	byPath        map[string]*pkgIndex
	methodsByName map[string][]*FuncNode
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

// --- per-package indexes ---

type pkgIndex struct {
	pkg     *Package
	types   map[string]*typeDecl
	funcs   map[string]*FuncNode
	methods map[string]map[string]*FuncNode // recv type name -> method name -> node
	vars    map[string]ast.Expr             // package-level var name -> declared type expr (nil if inferred)
	varFile map[string]*ast.File
}

type typeDecl struct {
	file *ast.File
	spec *ast.TypeSpec
}

// --- structural type references ---

type refKind int

const (
	refUnknown  refKind = iota
	refBasic            // predeclared basic type
	refNamed            // named type declared in a loaded package
	refExternal         // named type in a package outside the module
	refPointer
	refSlice
	refArray
	refMap
	refChan
	refFunc
	refIface // interface type (anonymous, error, any, or named in-module interface)
	refStruct
)

// typeRef is a structural type reference. Named kinds carry their package
// path and name; container kinds carry element (and for maps, key) refs.
type typeRef struct {
	Kind refKind
	Pkg  string
	Name string
	Elem *typeRef
	Key  *typeRef
}

var unknownRef = typeRef{Kind: refUnknown}

func (t typeRef) String() string {
	switch t.Kind {
	case refNamed, refExternal:
		return t.Pkg + "." + t.Name
	case refBasic:
		return t.Name
	case refPointer:
		return "*" + t.Elem.String()
	case refSlice:
		return "[]" + t.Elem.String()
	case refMap:
		return "map[...]" + t.Elem.String()
	default:
		return fmt.Sprintf("<%d>", t.Kind)
	}
}

// deref unwraps pointer layers.
func (t typeRef) deref() typeRef {
	for t.Kind == refPointer && t.Elem != nil {
		t = *t.Elem
	}
	return t
}

var basicTypes = map[string]bool{
	"bool": true, "string": true, "int": true, "int8": true, "int16": true,
	"int32": true, "int64": true, "uint": true, "uint8": true, "uint16": true,
	"uint32": true, "uint64": true, "uintptr": true, "byte": true, "rune": true,
	"float32": true, "float64": true, "complex64": true, "complex128": true,
}

var builtinFuncs = map[string]bool{
	"make": true, "new": true, "append": true, "len": true, "cap": true,
	"copy": true, "delete": true, "close": true, "panic": true, "recover": true,
	"print": true, "println": true, "min": true, "max": true, "clear": true,
}

type funcSig struct {
	params  []sigParam
	results []typeRef
}

type sigParam struct {
	name string
	typ  typeRef
}

// --- graph construction ---

// BuildGraph indexes every loaded package and resolves a call graph over
// them. It cannot fail: unresolvable constructs degrade per the soundness
// stance above.
func BuildGraph(pkgs []*Package) *Graph {
	g := &Graph{
		Pkgs:          pkgs,
		byPath:        make(map[string]*pkgIndex),
		methodsByName: make(map[string][]*FuncNode),
		edgesBySite:   make(map[*ast.CallExpr][]Edge),
		fileToPkg:     make(map[string]*Package),
	}
	// Pass 1: declaration indexes and nodes.
	for _, pkg := range pkgs {
		pi := &pkgIndex{
			pkg:     pkg,
			types:   make(map[string]*typeDecl),
			funcs:   make(map[string]*FuncNode),
			methods: make(map[string]map[string]*FuncNode),
			vars:    make(map[string]ast.Expr),
			varFile: make(map[string]*ast.File),
		}
		g.byPath[pkg.Path] = pi
		for _, f := range pkg.Files {
			g.fileToPkg[pkg.Fset.Position(f.Pos()).Filename] = pkg
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							pi.types[sp.Name.Name] = &typeDecl{file: f, spec: sp}
						case *ast.ValueSpec:
							for _, name := range sp.Names {
								pi.vars[name.Name] = sp.Type
								pi.varFile[name.Name] = f
							}
						}
					}
				case *ast.FuncDecl:
					if d.Body == nil {
						continue
					}
					node := &FuncNode{Pkg: pkg, File: f, Decl: d, Name: d.Name.Name}
					if ann := declAnnotations(f, d); ann != nil {
						node.HotPath = ann["hotpath"]
						node.SnapshotRoot = ann["snapshotroot"]
					}
					if d.Recv != nil && len(d.Recv.List) == 1 {
						rt := recvTypeName(d.Recv.List[0].Type)
						if rt != "" {
							node.RecvType = rt
							node.Name = "(*" + rt + ")." + d.Name.Name
							m := pi.methods[rt]
							if m == nil {
								m = make(map[string]*FuncNode)
								pi.methods[rt] = m
							}
							m[d.Name.Name] = node
							g.methodsByName[d.Name.Name] = append(g.methodsByName[d.Name.Name], node)
						}
					} else {
						pi.funcs[d.Name.Name] = node
					}
					g.Nodes = append(g.Nodes, node)
				}
			}
		}
	}
	// Pass 2: resolve bodies. Literal nodes are appended as they are found.
	for _, pi := range g.byPath {
		for _, node := range g.Nodes {
			_ = pi
			_ = node
		}
	}
	for i := 0; i < len(g.Nodes); i++ {
		node := g.Nodes[i]
		if node.Lit != nil {
			continue // literals are resolved by their creating walk
		}
		w := &graphWalker{g: g, pi: g.byPath[node.Pkg.Path], node: node, env: map[string]typeRef{}}
		w.bindSignature(node)
		w.stmts(node.Body().List)
	}
	return g
}

// declAnnotations scans a declaration's doc comment (and the comment group
// directly attached above it) for //lint:<name> marker lines.
func declAnnotations(f *ast.File, d *ast.FuncDecl) map[string]bool {
	if d.Doc == nil {
		return nil
	}
	var out map[string]bool
	for _, c := range d.Doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, "//lint:") {
			continue
		}
		name := strings.TrimPrefix(text, "//lint:")
		if i := strings.IndexAny(name, " \t"); i >= 0 {
			name = name[:i]
		}
		if out == nil {
			out = make(map[string]bool)
		}
		out[name] = true
	}
	return out
}

// recvTypeName extracts the named type of a method receiver.
func recvTypeName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(v.X)
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr: // generic receiver
		return recvTypeName(v.X)
	case *ast.IndexListExpr:
		return recvTypeName(v.X)
	case *ast.ParenExpr:
		return recvTypeName(v.X)
	}
	return ""
}

// --- type resolution ---

// resolveTypeExpr resolves a syntactic type expression in the context of one
// file (for import names) and one package (for local type names).
func (g *Graph) resolveTypeExpr(pi *pkgIndex, file *ast.File, e ast.Expr) typeRef {
	switch v := e.(type) {
	case *ast.Ident:
		if basicTypes[v.Name] {
			return typeRef{Kind: refBasic, Name: v.Name}
		}
		if v.Name == "any" || v.Name == "error" {
			return typeRef{Kind: refIface, Name: v.Name}
		}
		if _, ok := pi.types[v.Name]; ok {
			return typeRef{Kind: refNamed, Pkg: pi.pkg.Path, Name: v.Name}
		}
		return unknownRef
	case *ast.SelectorExpr:
		base, ok := v.X.(*ast.Ident)
		if !ok {
			return unknownRef
		}
		path := importPathByName(file, base.Name)
		if path == "" {
			return unknownRef
		}
		if other, ok := g.byPath[path]; ok {
			if _, ok := other.types[v.Sel.Name]; ok {
				return typeRef{Kind: refNamed, Pkg: path, Name: v.Sel.Name}
			}
			return unknownRef
		}
		return typeRef{Kind: refExternal, Pkg: path, Name: v.Sel.Name}
	case *ast.StarExpr:
		elem := g.resolveTypeExpr(pi, file, v.X)
		return typeRef{Kind: refPointer, Elem: &elem}
	case *ast.ArrayType:
		elem := g.resolveTypeExpr(pi, file, v.Elt)
		if v.Len == nil {
			return typeRef{Kind: refSlice, Elem: &elem}
		}
		return typeRef{Kind: refArray, Elem: &elem}
	case *ast.MapType:
		key := g.resolveTypeExpr(pi, file, v.Key)
		elem := g.resolveTypeExpr(pi, file, v.Value)
		return typeRef{Kind: refMap, Key: &key, Elem: &elem}
	case *ast.ChanType:
		elem := g.resolveTypeExpr(pi, file, v.Value)
		return typeRef{Kind: refChan, Elem: &elem}
	case *ast.FuncType:
		return typeRef{Kind: refFunc}
	case *ast.InterfaceType:
		return typeRef{Kind: refIface}
	case *ast.StructType:
		return typeRef{Kind: refStruct}
	case *ast.Ellipsis:
		elem := g.resolveTypeExpr(pi, file, v.Elt)
		return typeRef{Kind: refSlice, Elem: &elem}
	case *ast.ParenExpr:
		return g.resolveTypeExpr(pi, file, v.X)
	case *ast.IndexExpr: // generic instantiation: resolve the base
		return g.resolveTypeExpr(pi, file, v.X)
	case *ast.IndexListExpr:
		return g.resolveTypeExpr(pi, file, v.X)
	}
	return unknownRef
}

// importPathByName reports the import path bound to a file-local name.
func importPathByName(f *ast.File, name string) string {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if imp.Name != nil {
			if imp.Name.Name == name {
				return p
			}
			continue
		}
		last := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			last = p[i+1:]
		}
		if last == name {
			return p
		}
	}
	return ""
}

// underlying chases a named type to its declared underlying type, with a
// cycle guard. Named types outside the module stay as-is.
func (g *Graph) underlying(t typeRef) typeRef {
	seen := map[string]bool{}
	for t.Kind == refNamed {
		key := t.Pkg + "." + t.Name
		if seen[key] {
			return t
		}
		seen[key] = true
		pi, ok := g.byPath[t.Pkg]
		if !ok {
			return t
		}
		td, ok := pi.types[t.Name]
		if !ok {
			return t
		}
		switch td.spec.Type.(type) {
		case *ast.StructType, *ast.InterfaceType:
			return g.resolveNamedUnderlying(pi, td)
		}
		t = g.resolveTypeExpr(pi, td.file, td.spec.Type)
	}
	return t
}

func (g *Graph) resolveNamedUnderlying(pi *pkgIndex, td *typeDecl) typeRef {
	switch td.spec.Type.(type) {
	case *ast.StructType:
		return typeRef{Kind: refStruct, Pkg: pi.pkg.Path, Name: td.spec.Name.Name}
	case *ast.InterfaceType:
		return typeRef{Kind: refIface, Pkg: pi.pkg.Path, Name: td.spec.Name.Name}
	}
	return unknownRef
}

// structOf returns the struct type declaration behind a (possibly pointer)
// named type, or nil.
func (g *Graph) structOf(t typeRef) (*pkgIndex, *ast.StructType) {
	t = t.deref()
	if t.Kind != refNamed && t.Kind != refStruct {
		return nil, nil
	}
	pi, ok := g.byPath[t.Pkg]
	if !ok {
		return nil, nil
	}
	td, ok := pi.types[t.Name]
	if !ok {
		return nil, nil
	}
	st, ok := td.spec.Type.(*ast.StructType)
	if !ok {
		// A named alias of another named type: chase it.
		u := g.resolveTypeExpr(pi, td.file, td.spec.Type)
		if u.Kind == refNamed && (u.Pkg != t.Pkg || u.Name != t.Name) {
			return g.structOf(u)
		}
		return nil, nil
	}
	return pi, st
}

// fieldType resolves a field selector against a named struct type, following
// embedded fields one level of promotion at a time.
func (g *Graph) fieldType(t typeRef, name string) (typeRef, bool) {
	return g.fieldTypeDepth(t, name, 0)
}

func (g *Graph) fieldTypeDepth(t typeRef, name string, depth int) (typeRef, bool) {
	if depth > 3 {
		return unknownRef, false
	}
	pi, st := g.structOf(t)
	if st == nil {
		return unknownRef, false
	}
	td := pi.types[t.deref().Name]
	var embedded []ast.Expr
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			// Embedded field: its name is the type's base name.
			base := field.Type
			if se, ok := base.(*ast.StarExpr); ok {
				base = se.X
			}
			fname := ""
			switch b := base.(type) {
			case *ast.Ident:
				fname = b.Name
			case *ast.SelectorExpr:
				fname = b.Sel.Name
			}
			if fname == name {
				return g.resolveTypeExpr(pi, td.file, field.Type), true
			}
			embedded = append(embedded, field.Type)
			continue
		}
		for _, fn := range field.Names {
			if fn.Name == name {
				return g.resolveTypeExpr(pi, td.file, field.Type), true
			}
		}
	}
	for _, emb := range embedded {
		et := g.resolveTypeExpr(pi, td.file, emb)
		if ft, ok := g.fieldTypeDepth(et, name, depth+1); ok {
			return ft, true
		}
	}
	return unknownRef, false
}

// methodOn resolves a method on a (possibly pointer) named in-module type,
// following embedded promotion.
func (g *Graph) methodOn(t typeRef, name string) *FuncNode {
	return g.methodOnDepth(t, name, 0)
}

func (g *Graph) methodOnDepth(t typeRef, name string, depth int) *FuncNode {
	if depth > 3 {
		return nil
	}
	t = t.deref()
	if t.Kind != refNamed {
		return nil
	}
	pi, ok := g.byPath[t.Pkg]
	if !ok {
		return nil
	}
	if m := pi.methods[t.Name]; m != nil {
		if n := m[name]; n != nil {
			return n
		}
	}
	// Promoted methods through embedded fields.
	if _, st := g.structOf(t); st != nil {
		td := pi.types[t.Name]
		for _, field := range st.Fields.List {
			if len(field.Names) != 0 {
				continue
			}
			et := g.resolveTypeExpr(pi, td.file, field.Type)
			if n := g.methodOnDepth(et, name, depth+1); n != nil {
				return n
			}
		}
	}
	return nil
}

// signature lazily resolves a node's parameter and result types.
func (g *Graph) signature(n *FuncNode) *funcSig {
	if n.sig != nil {
		return n.sig
	}
	sig := &funcSig{}
	pi := g.byPath[n.Pkg.Path]
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			t := g.resolveTypeExpr(pi, n.File, field.Type)
			if len(field.Names) == 0 {
				sig.params = append(sig.params, sigParam{typ: t})
				continue
			}
			for _, name := range field.Names {
				sig.params = append(sig.params, sigParam{name: name.Name, typ: t})
			}
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			t := g.resolveTypeExpr(pi, n.File, field.Type)
			k := len(field.Names)
			if k == 0 {
				k = 1
			}
			for i := 0; i < k; i++ {
				sig.results = append(sig.results, t)
			}
		}
	}
	n.sig = sig
	return sig
}

// --- body walking: local type environment and call resolution ---

type graphWalker struct {
	g    *Graph
	pi   *pkgIndex
	node *FuncNode
	env  map[string]typeRef
}

// bindSignature seeds the environment with the receiver and parameters.
func (w *graphWalker) bindSignature(n *FuncNode) {
	if n.Decl != nil && n.Decl.Recv != nil && len(n.Decl.Recv.List) == 1 {
		r := n.Decl.Recv.List[0]
		if len(r.Names) == 1 {
			w.env[r.Names[0].Name] = w.g.resolveTypeExpr(w.pi, n.File, r.Type)
		}
	}
	sig := w.g.signature(n)
	for _, p := range sig.params {
		if p.name != "" {
			w.env[p.name] = p.typ
		}
	}
	// Named results participate in the environment too.
	var ft *ast.FuncType
	if n.Decl != nil {
		ft = n.Decl.Type
	} else {
		ft = n.Lit.Type
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			t := w.g.resolveTypeExpr(w.pi, n.File, field.Type)
			for _, name := range field.Names {
				w.env[name.Name] = t
			}
		}
	}
}

func (w *graphWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *graphWalker) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			w.expr(rhs)
		}
		for _, lhs := range v.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				w.expr(lhs)
			}
		}
		w.recordAssign(v)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				var t typeRef
				if vs.Type != nil {
					t = w.g.resolveTypeExpr(w.pi, w.node.File, vs.Type)
				}
				for i, name := range vs.Names {
					if vs.Type == nil && i < len(vs.Values) {
						t = w.exprType(vs.Values[i])
					}
					w.env[name.Name] = t
				}
				for _, val := range vs.Values {
					w.expr(val)
				}
			}
		}
	case *ast.ExprStmt:
		w.expr(v.X)
	case *ast.SendStmt:
		w.expr(v.Chan)
		w.expr(v.Value)
	case *ast.IncDecStmt:
		w.expr(v.X)
	case *ast.GoStmt:
		w.call(v.Call, EdgeGo)
	case *ast.DeferStmt:
		w.call(v.Call, EdgeDefer)
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			w.expr(r)
		}
	case *ast.BlockStmt:
		w.stmts(v.List)
	case *ast.IfStmt:
		w.stmt(v.Init)
		w.expr(v.Cond)
		w.stmt(v.Body)
		w.stmt(v.Else)
	case *ast.ForStmt:
		w.stmt(v.Init)
		w.expr(v.Cond)
		w.stmt(v.Post)
		w.stmt(v.Body)
	case *ast.RangeStmt:
		w.expr(v.X)
		ct := w.exprType(v.X).deref()
		u := w.g.underlying(ct)
		bind := func(e ast.Expr, t typeRef) {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = t
			}
		}
		if v.Key != nil {
			switch u.Kind {
			case refMap:
				if u.Key != nil {
					bind(v.Key, *u.Key)
				}
			case refSlice, refArray:
				bind(v.Key, typeRef{Kind: refBasic, Name: "int"})
			case refChan:
				if u.Elem != nil {
					bind(v.Key, *u.Elem)
				}
			}
		}
		if v.Value != nil && u.Elem != nil {
			bind(v.Value, *u.Elem)
		}
		w.stmt(v.Body)
	case *ast.SwitchStmt:
		w.stmt(v.Init)
		w.expr(v.Tag)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.expr(e)
				}
				w.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmt(v.Init)
		// `switch x := y.(type)` binds x per case; approximate with the
		// single-type cases' type where unambiguous.
		var bindName string
		if as, ok := v.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				bindName = id.Name
			}
		}
		for _, c := range v.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			if bindName != "" && len(cc.List) == 1 {
				w.env[bindName] = w.g.resolveTypeExpr(w.pi, w.node.File, cc.List[0])
			} else if bindName != "" {
				w.env[bindName] = unknownRef
			}
			w.stmts(cc.Body)
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.stmt(cc.Comm)
				w.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(v.Stmt)
	}
}

// recordAssign updates the environment from an assignment.
func (w *graphWalker) recordAssign(as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			w.env[id.Name] = w.exprType(as.Rhs[i])
		}
		return
	}
	if len(as.Rhs) != 1 {
		return
	}
	// Multi-value: call results, map lookup with ok, type assertion with ok.
	switch rhs := as.Rhs[0].(type) {
	case *ast.CallExpr:
		results := w.callResults(rhs)
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if i < len(results) {
				w.env[id.Name] = results[i]
			} else {
				w.env[id.Name] = unknownRef
			}
		}
	case *ast.IndexExpr:
		if len(as.Lhs) == 2 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = w.exprType(rhs)
			}
			if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = typeRef{Kind: refBasic, Name: "bool"}
			}
		}
	case *ast.TypeAssertExpr:
		if len(as.Lhs) == 2 && rhs.Type != nil {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = w.g.resolveTypeExpr(w.pi, w.node.File, rhs.Type)
			}
			if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = typeRef{Kind: refBasic, Name: "bool"}
			}
		}
	case *ast.UnaryExpr: // v, ok := <-ch
		if len(as.Lhs) == 2 && rhs.Op == token.ARROW {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = w.exprType(rhs)
			}
			if id, ok := as.Lhs[1].(*ast.Ident); ok && id.Name != "_" {
				w.env[id.Name] = typeRef{Kind: refBasic, Name: "bool"}
			}
		}
	}
}

// expr walks an expression, resolving calls and literal closures into edges.
func (w *graphWalker) expr(e ast.Expr) {
	switch v := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(v, EdgeCall)
	case *ast.FuncLit:
		w.funcLit(v, EdgeRef, nil)
	case *ast.ParenExpr:
		w.expr(v.X)
	case *ast.SelectorExpr:
		w.expr(v.X)
		w.methodValue(v)
	case *ast.StarExpr:
		w.expr(v.X)
	case *ast.UnaryExpr:
		w.expr(v.X)
	case *ast.BinaryExpr:
		w.expr(v.X)
		w.expr(v.Y)
	case *ast.IndexExpr:
		w.expr(v.X)
		w.expr(v.Index)
	case *ast.IndexListExpr:
		w.expr(v.X)
	case *ast.SliceExpr:
		w.expr(v.X)
		w.expr(v.Low)
		w.expr(v.High)
		w.expr(v.Max)
	case *ast.TypeAssertExpr:
		w.expr(v.X)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
				continue
			}
			w.expr(el)
		}
	case *ast.KeyValueExpr:
		w.expr(v.Value)
	}
}

// methodValue records an EdgeRef when a method is referenced as a value
// outside a call position (`state.NewSource(s.StateSnapshot)`).
func (w *graphWalker) methodValue(sel *ast.SelectorExpr) {
	// Only selector expressions whose base resolves to an in-module type and
	// whose selector is one of its methods count; field reads fall through.
	t := w.exprType(sel.X)
	if n := w.g.methodOn(t, sel.Sel.Name); n != nil {
		w.addEdge(Edge{Kind: EdgeRef, Callee: n, Target: n.Name, Pos: sel.Pos()})
	}
}

// funcLit creates the literal's node and an edge of the given kind.
func (w *graphWalker) funcLit(lit *ast.FuncLit, kind EdgeKind, call *ast.CallExpr) *FuncNode {
	child := &FuncNode{
		Pkg:    w.node.Pkg,
		File:   w.node.File,
		Name:   w.node.Name + ".func",
		Lit:    lit,
		Parent: w.node,
	}
	w.g.Nodes = append(w.g.Nodes, child)
	w.addEdge(Edge{Kind: kind, Callee: child, Target: child.Name, Site: call, Pos: lit.Pos()})
	// Walk the literal with a copy of the current environment: closures see
	// the surrounding scope.
	env := make(map[string]typeRef, len(w.env))
	for k, v := range w.env {
		env[k] = v
	}
	cw := &graphWalker{g: w.g, pi: w.pi, node: child, env: env}
	cw.bindSignature(child)
	cw.stmts(lit.Body.List)
	return child
}

func (w *graphWalker) addEdge(e Edge) {
	w.node.Edges = append(w.node.Edges, e)
	if e.Site != nil {
		w.g.edgesBySite[e.Site] = append(w.g.edgesBySite[e.Site], w.node.Edges[len(w.node.Edges)-1])
	}
}

// call resolves one call expression into edges and walks its arguments.
func (w *graphWalker) call(call *ast.CallExpr, kind EdgeKind) {
	for _, arg := range call.Args {
		w.expr(arg)
	}
	fun := call.Fun
	for {
		if p, ok := fun.(*ast.ParenExpr); ok {
			fun = p.X
			continue
		}
		break
	}
	switch f := fun.(type) {
	case *ast.FuncLit:
		// Immediately-invoked (or deferred/spawned) literal.
		w.funcLit(f, kind, call)
		return
	case *ast.Ident:
		if builtinFuncs[f.Name] {
			// Builtin: arguments already walked; make/new type args are not
			// calls. No edge.
			return
		}
		if t := w.g.resolveTypeExpr(w.pi, w.node.File, f); t.Kind != refUnknown {
			// Type conversion.
			return
		}
		if _, isLocal := w.env[f.Name]; isLocal {
			// Dynamic func value; creation was tracked as EdgeRef.
			w.addEdge(Edge{Kind: kind, Target: f.Name + " (dynamic)", Site: call, Pos: call.Pos()})
			return
		}
		if n := w.pi.funcs[f.Name]; n != nil {
			w.addEdge(Edge{Kind: kind, Callee: n, Target: n.Name, Site: call, Pos: call.Pos()})
			return
		}
		w.addEdge(Edge{Kind: kind, Target: f.Name, Site: call, Pos: call.Pos()})
		return
	case *ast.SelectorExpr:
		if base, ok := f.X.(*ast.Ident); ok {
			if _, shadowed := w.env[base.Name]; !shadowed {
				if path := importPathByName(w.node.File, base.Name); path != "" {
					if other, ok := w.g.byPath[path]; ok {
						if _, isType := other.types[f.Sel.Name]; isType {
							return // cross-package conversion
						}
						if n := other.funcs[f.Sel.Name]; n != nil {
							w.addEdge(Edge{Kind: kind, Callee: n, Target: n.Name, Site: call, Pos: call.Pos()})
							return
						}
						w.addEdge(Edge{Kind: kind, Target: path + "." + f.Sel.Name, Site: call, Pos: call.Pos()})
						return
					}
					// External package: leaf.
					w.addEdge(Edge{Kind: kind, Target: path + "." + f.Sel.Name, Site: call, Pos: call.Pos()})
					return
				}
			}
		}
		w.expr(f.X)
		recv := w.exprType(f.X)
		switch recv.deref().Kind {
		case refNamed:
			if n := w.g.methodOn(recv, f.Sel.Name); n != nil {
				w.addEdge(Edge{Kind: kind, Callee: n, Target: n.Name, Site: call, Pos: call.Pos()})
				return
			}
			// Named in-module type without that method: if its underlying is
			// an interface, over-approximate dispatch; otherwise leaf.
			if w.g.underlying(recv.deref()).Kind == refIface {
				w.overApproxIface(call, kind, f.Sel.Name, recv.deref())
				return
			}
			w.addEdge(Edge{Kind: kind, Target: recv.deref().String() + "." + f.Sel.Name, Site: call, Pos: call.Pos()})
			return
		case refExternal:
			w.addEdge(Edge{Kind: kind, Target: recv.deref().String() + "." + f.Sel.Name, Site: call, Pos: call.Pos()})
			return
		case refIface:
			w.overApproxIface(call, kind, f.Sel.Name, recv.deref())
			return
		case refBasic, refSlice, refMap, refChan, refArray, refStruct, refFunc:
			w.addEdge(Edge{Kind: kind, Target: f.Sel.Name, Site: call, Pos: call.Pos()})
			return
		default:
			w.overApproxWeak(call, kind, f.Sel.Name)
			return
		}
	default:
		// A computed function expression; walk it for nested calls.
		w.expr(fun)
		w.addEdge(Edge{Kind: kind, Target: "(dynamic)", Site: call, Pos: call.Pos()})
	}
}

// overApprox links an interface-dispatched call to every module method of
// the same name — the sound over-approximation of dynamic dispatch.
func (w *graphWalker) overApprox(call *ast.CallExpr, kind EdgeKind, name string) {
	methods := w.g.methodsByName[name]
	if len(methods) == 0 {
		w.addEdge(Edge{Kind: kind, Target: name, Site: call, Pos: call.Pos()})
		return
	}
	for _, m := range methods {
		w.addEdge(Edge{Kind: kind, Callee: m, Target: m.Name, Site: call, Pos: call.Pos(), OverApprox: true})
	}
}

// overApproxIface over-approximates dispatch through a KNOWN in-module
// interface: candidates are restricted to methods on types that plausibly
// implement it (they have every method name the interface declares) —
// `transport.Conn.Close()` dispatches to the Close of connection types, not
// every Close in the module. If the method set cannot be resolved or
// filtering empties the candidates, fall back to the unfiltered set.
func (w *graphWalker) overApproxIface(call *ast.CallExpr, kind EdgeKind, name string, iface typeRef) {
	required := w.g.ifaceMethodNames(iface)
	if len(required) == 0 {
		w.overApprox(call, kind, name)
		return
	}
	var candidates []*FuncNode
	for _, m := range w.g.methodsByName[name] {
		implements := true
		recv := typeRef{Kind: refNamed, Pkg: m.Pkg.Path, Name: m.RecvType}
		for _, req := range required {
			if req == name {
				continue
			}
			if w.g.methodOn(recv, req) == nil {
				implements = false
				break
			}
		}
		if implements {
			candidates = append(candidates, m)
		}
	}
	if len(candidates) == 0 {
		w.overApprox(call, kind, name)
		return
	}
	for _, m := range candidates {
		w.addEdge(Edge{Kind: kind, Callee: m, Target: m.Name, Site: call, Pos: call.Pos(), OverApprox: true})
	}
}

// ifaceMethodNames resolves the declared method names of an in-module
// interface type, following embedded in-module interfaces. Externally
// embedded interfaces contribute nothing (filtering on the known subset
// only widens the candidate set — safe).
func (g *Graph) ifaceMethodNames(t typeRef) []string {
	return g.ifaceMethodNamesDepth(t, 0)
}

func (g *Graph) ifaceMethodNamesDepth(t typeRef, depth int) []string {
	if depth > 3 {
		return nil
	}
	t = t.deref()
	if t.Name == "" {
		return nil
	}
	pi, ok := g.byPath[t.Pkg]
	if !ok {
		return nil
	}
	td, ok := pi.types[t.Name]
	if !ok {
		return nil
	}
	it, ok := td.spec.Type.(*ast.InterfaceType)
	if !ok {
		return nil
	}
	var names []string
	for _, field := range it.Methods.List {
		if len(field.Names) > 0 {
			for _, n := range field.Names {
				names = append(names, n.Name)
			}
			continue
		}
		emb := g.resolveTypeExpr(pi, td.file, field.Type)
		names = append(names, g.ifaceMethodNamesDepth(emb, depth+1)...)
	}
	return names
}

// overApproxWeak is overApprox for receivers with no type information at
// all; the edges are additionally marked Weak.
func (w *graphWalker) overApproxWeak(call *ast.CallExpr, kind EdgeKind, name string) {
	methods := w.g.methodsByName[name]
	if len(methods) == 0 {
		w.addEdge(Edge{Kind: kind, Target: name, Site: call, Pos: call.Pos()})
		return
	}
	for _, m := range methods {
		w.addEdge(Edge{Kind: kind, Callee: m, Target: m.Name, Site: call, Pos: call.Pos(), OverApprox: true, Weak: true})
	}
}

// callResults resolves a call's result types (for multi-assign inference).
func (w *graphWalker) callResults(call *ast.CallExpr) []typeRef {
	edges := w.g.edgesBySite[call]
	for _, e := range edges {
		if e.Callee != nil && !e.OverApprox {
			return w.g.signature(e.Callee).results
		}
	}
	return nil
}

// exprType infers an expression's type from the environment and the
// declaration indexes. Unknown stays unknown; no guessing.
func (w *graphWalker) exprType(e ast.Expr) typeRef {
	switch v := e.(type) {
	case *ast.Ident:
		if t, ok := w.env[v.Name]; ok {
			return t
		}
		if texpr, ok := w.pi.vars[v.Name]; ok && texpr != nil {
			return w.g.resolveTypeExpr(w.pi, w.pi.varFile[v.Name], texpr)
		}
		if v.Name == "nil" || v.Name == "true" || v.Name == "false" {
			if v.Name == "nil" {
				return unknownRef
			}
			return typeRef{Kind: refBasic, Name: "bool"}
		}
		return unknownRef
	case *ast.SelectorExpr:
		if base, ok := v.X.(*ast.Ident); ok {
			if _, shadowed := w.env[base.Name]; !shadowed {
				if path := importPathByName(w.node.File, base.Name); path != "" {
					if other, ok := w.g.byPath[path]; ok {
						if texpr, ok := other.vars[v.Sel.Name]; ok && texpr != nil {
							return w.g.resolveTypeExpr(other, other.varFile[v.Sel.Name], texpr)
						}
						return unknownRef
					}
					return unknownRef
				}
			}
		}
		base := w.exprType(v.X)
		if ft, ok := w.g.fieldType(base, v.Sel.Name); ok {
			return ft
		}
		return unknownRef
	case *ast.CallExpr:
		fun := v.Fun
		if p, ok := fun.(*ast.ParenExpr); ok {
			fun = p.X
		}
		// Conversion?
		switch f := fun.(type) {
		case *ast.Ident:
			if t := w.g.resolveTypeExpr(w.pi, w.node.File, f); t.Kind != refUnknown {
				return t
			}
			switch f.Name {
			case "make":
				if len(v.Args) > 0 {
					return w.g.resolveTypeExpr(w.pi, w.node.File, v.Args[0])
				}
			case "new":
				if len(v.Args) == 1 {
					elem := w.g.resolveTypeExpr(w.pi, w.node.File, v.Args[0])
					return typeRef{Kind: refPointer, Elem: &elem}
				}
			case "append":
				if len(v.Args) > 0 {
					return w.exprType(v.Args[0])
				}
			case "len", "cap":
				return typeRef{Kind: refBasic, Name: "int"}
			}
		case *ast.SelectorExpr:
			if t := w.g.resolveTypeExpr(w.pi, w.node.File, f); t.Kind == refNamed {
				return t // cross-package conversion
			}
		case *ast.ArrayType, *ast.MapType, *ast.StarExpr, *ast.ChanType, *ast.FuncType, *ast.InterfaceType:
			return w.g.resolveTypeExpr(w.pi, w.node.File, fun.(ast.Expr))
		}
		results := w.callResults(v)
		if len(results) >= 1 {
			return results[0]
		}
		return unknownRef
	case *ast.UnaryExpr:
		switch v.Op {
		case token.AND:
			elem := w.exprType(v.X)
			return typeRef{Kind: refPointer, Elem: &elem}
		case token.ARROW:
			ct := w.g.underlying(w.exprType(v.X).deref())
			if ct.Kind == refChan && ct.Elem != nil {
				return *ct.Elem
			}
			return unknownRef
		case token.NOT:
			return typeRef{Kind: refBasic, Name: "bool"}
		}
		return w.exprType(v.X)
	case *ast.StarExpr:
		t := w.exprType(v.X)
		if t.Kind == refPointer && t.Elem != nil {
			return *t.Elem
		}
		return unknownRef
	case *ast.IndexExpr:
		ct := w.g.underlying(w.exprType(v.X).deref())
		if (ct.Kind == refMap || ct.Kind == refSlice || ct.Kind == refArray) && ct.Elem != nil {
			return *ct.Elem
		}
		return unknownRef
	case *ast.SliceExpr:
		t := w.exprType(v.X)
		u := w.g.underlying(t.deref())
		if u.Kind == refArray && u.Elem != nil {
			return typeRef{Kind: refSlice, Elem: u.Elem}
		}
		return t
	case *ast.CompositeLit:
		if v.Type != nil {
			return w.g.resolveTypeExpr(w.pi, w.node.File, v.Type)
		}
		return unknownRef
	case *ast.TypeAssertExpr:
		if v.Type != nil {
			return w.g.resolveTypeExpr(w.pi, w.node.File, v.Type)
		}
		return unknownRef
	case *ast.ParenExpr:
		return w.exprType(v.X)
	case *ast.BasicLit:
		switch v.Kind {
		case token.STRING:
			return typeRef{Kind: refBasic, Name: "string"}
		case token.INT:
			return typeRef{Kind: refBasic, Name: "int"}
		case token.FLOAT:
			return typeRef{Kind: refBasic, Name: "float64"}
		case token.CHAR:
			return typeRef{Kind: refBasic, Name: "rune"}
		}
		return unknownRef
	case *ast.FuncLit:
		return typeRef{Kind: refFunc}
	case *ast.BinaryExpr:
		switch v.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ,
			token.LAND, token.LOR:
			return typeRef{Kind: refBasic, Name: "bool"}
		}
		return w.exprType(v.X)
	}
	return unknownRef
}

// --- reachability ---

// ReachOpts selects which edge kinds a traversal follows.
type ReachOpts struct {
	Call, Go, Defer, Ref bool
	// OverApprox includes name-based over-approximated edges.
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
			ec := e
			ec.Site = nil // parents only need target + pos
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
