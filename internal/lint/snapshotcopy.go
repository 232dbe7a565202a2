package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotCopy makes PR 9's share-no-memory discipline a compile-time fact:
// a snapshot root — core.Table.Snapshot, any StateSnapshot method, or a
// //lint:snapshotroot-annotated function — must not return memory that
// aliases the live structures it was called on. The analysis taints the
// root's receiver and reference-kinded parameters, propagates taint through
// assignments, field selections, indexing, range loops, (via memoized
// per-function summaries) calls to other in-module functions, and methods of
// external containers (atomic.Pointer[T].Load), and reports wherever a
// tainted value reaches a return statement.
//
// Taint only flows through "refish" types — types that can alias memory:
// pointers, slices, maps, chans, funcs, and structs (transitively)
// containing one. Selecting a basic field out of a tainted struct
// (`l.granted`, a time.Time, an ObjectID) copies a value and drops the
// taint; that is exactly the deep-copy idiom the discipline requires, so
// the analyzer is silent on correct code by construction.
//
// Known blind spots, documented in DESIGN.md §13: a value laundered through
// an interface comes back clean (sync.Map.Load returns `any`, and interfaces
// are not refish — most are errors and clocks); closure captures are not
// tracked.
var SnapshotCopy = &Analyzer{
	Name:     "snapshotcopy",
	Doc:      "snapshot roots must not return references to live maps/slices (share-no-memory)",
	RunGraph: runSnapshotCopy,
}

// isSnapshotRoot identifies the functions whose return values must share no
// memory with live state.
func isSnapshotRoot(n *FuncNode) bool {
	if n.SnapshotRoot {
		return true
	}
	if n.Decl == nil {
		return false
	}
	name := n.Decl.Name.Name
	if name == "StateSnapshot" {
		return true
	}
	return name == "Snapshot" && n.RecvType == "Table"
}

func runSnapshotCopy(p *GraphPass) {
	sc := &snapCopy{
		g:          p.Graph,
		summaries:  make(map[*FuncNode]*snapSummary),
		visiting:   make(map[*FuncNode]bool),
		refishMemo: make(map[*types.Named]bool),
	}
	for _, n := range sc.g.Nodes {
		if !isSnapshotRoot(n) {
			continue
		}
		sum := sc.summarize(n)
		for idx, leak := range sum.leaks {
			p.ReportNodef(n, leak.pos,
				"snapshot root %s returns memory aliasing live %s (%s); deep-copy it — snapshots must share no memory with live state",
				n.Name, paramName(n, idx), leak.src)
		}
	}
}

type snapCopy struct {
	g          *Graph
	summaries  map[*FuncNode]*snapSummary
	visiting   map[*FuncNode]bool
	refishMemo map[*types.Named]bool
}

// taintMask bit i set = may alias parameter i (0 = receiver for methods).
type taintMask uint64

type snapLeak struct {
	pos token.Pos
	src string
}

// snapSummary records which parameters a function's return values may
// alias, with the first leak site for each.
type snapSummary struct {
	leaks map[int]*snapLeak
}

// paramName renders the leaked parameter for diagnostics.
func paramName(n *FuncNode, idx int) string {
	sig := n.Signature()
	if recv := sig.Recv(); recv != nil {
		if idx == 0 {
			if recv.Name() != "" {
				return "receiver " + recv.Name()
			}
			return "receiver"
		}
		idx--
	}
	if idx < sig.Params().Len() && sig.Params().At(idx).Name() != "" {
		return "parameter " + sig.Params().At(idx).Name()
	}
	return "a parameter"
}

// refish reports whether a type can alias memory.
func (sc *snapCopy) refish(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := types.Unalias(t).(*types.Named); ok {
		if v, ok := sc.refishMemo[named]; ok {
			return v
		}
		sc.refishMemo[named] = false // cycle guard: recursive types resolve below
		res := false
		if sc.g.InModule(named) {
			res = sc.refish(named.Underlying())
		} else {
			// A type from outside the module is a value (time.Time is
			// overwhelmingly value-copied here; treating its zone pointer as
			// aliasing would flag the cleanest code in the repo) — unless it
			// is a generic container, which aliases what it was instantiated
			// over: atomic.Pointer[map[K]*shard] holds the live map.
			for i := 0; i < named.TypeArgs().Len() && !res; i++ {
				res = sc.refish(named.TypeArgs().At(i))
			}
		}
		sc.refishMemo[named] = res
		return res
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Array:
		return sc.refish(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sc.refish(u.Field(i).Type()) {
				return true
			}
		}
	}
	// Basic, interface: err toward silence.
	return false
}

// summarize computes (and memoizes) a function's leak summary.
func (sc *snapCopy) summarize(fn *FuncNode) *snapSummary {
	if s, ok := sc.summaries[fn]; ok {
		return s
	}
	if sc.visiting[fn] {
		return &snapSummary{} // cycle: assume clean while resolving
	}
	sc.visiting[fn] = true
	tw := &taintWalker{
		sc:   sc,
		info: fn.Pkg.Info,
		sig:  fn.Signature(),
		env:  map[types.Object]taintVal{},
		sum:  &snapSummary{leaks: map[int]*snapLeak{}},
	}
	tw.seed()
	if body := fn.Body(); body != nil {
		// Two passes pick up loop-carried taint (x built in iteration n,
		// returned after the loop).
		tw.stmts(body.List)
		tw.stmts(body.List)
	}
	delete(sc.visiting, fn)
	sc.summaries[fn] = tw.sum
	return tw.sum
}

// --- the taint walker ---

// taintVal is what a value may alias, and through which expression.
type taintVal struct {
	m   taintMask
	src string
}

type taintWalker struct {
	sc   *snapCopy
	info *types.Info
	sig  *types.Signature
	env  map[types.Object]taintVal
	sum  *snapSummary
}

// seed taints the receiver and the parameters of refish type.
func (tw *taintWalker) seed() {
	idx := 0
	bind := func(v *types.Var) {
		if tw.sc.refish(v.Type()) && idx < 64 {
			tw.env[v] = taintVal{m: 1 << idx, src: v.Name()}
		}
		idx++
	}
	if recv := tw.sig.Recv(); recv != nil {
		bind(recv)
	}
	for i := 0; i < tw.sig.Params().Len(); i++ {
		bind(tw.sig.Params().At(i))
	}
}

// bind records what the variable behind an identifier now holds.
func (tw *taintWalker) bind(id *ast.Ident, val taintVal) {
	if obj := tw.info.ObjectOf(id); obj != nil { // nil for the blank identifier
		tw.env[obj] = val
	}
}

// through passes val's taint on to an expression derived from it (a field,
// an element, a conversion) if that expression's type can alias memory.
func (tw *taintWalker) through(val taintVal, derived ast.Expr) taintVal {
	if val.m == 0 || !tw.sc.refish(tw.info.TypeOf(derived)) {
		val.m = 0
	}
	return val
}

func (tw *taintWalker) stmts(list []ast.Stmt) {
	for _, s := range list {
		tw.stmt(s)
	}
}

func (tw *taintWalker) stmt(s ast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *ast.AssignStmt:
		tw.assign(v)
	case *ast.DeclStmt:
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var val taintVal
					if i < len(vs.Values) {
						val = tw.exprTaint(vs.Values[i])
					}
					tw.bind(name, val)
				}
			}
		}
	case *ast.ReturnStmt:
		if len(v.Results) == 0 {
			for i := 0; i < tw.sig.Results().Len(); i++ {
				if val := tw.env[tw.sig.Results().At(i)]; val.m != 0 {
					tw.leak(val.m, v.Pos(), val.src)
				}
			}
			return
		}
		for _, r := range v.Results {
			if val := tw.exprTaint(r); val.m != 0 {
				tw.leak(val.m, v.Pos(), val.src)
			}
		}
	case *ast.BlockStmt:
		tw.stmts(v.List)
	case *ast.IfStmt:
		tw.stmt(v.Init)
		tw.stmt(v.Body)
		tw.stmt(v.Else)
	case *ast.ForStmt:
		tw.stmt(v.Init)
		tw.stmt(v.Post)
		tw.stmt(v.Body)
	case *ast.RangeStmt:
		cont := tw.exprTaint(v.X)
		for _, e := range []ast.Expr{v.Key, v.Value} {
			if id, ok := e.(*ast.Ident); ok {
				tw.bind(id, tw.through(cont, id))
			}
		}
		tw.stmt(v.Body)
	case *ast.SwitchStmt:
		tw.stmt(v.Init)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		tw.stmt(v.Init)
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				tw.stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				tw.stmt(cc.Comm)
				tw.stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		tw.stmt(v.Stmt)
	}
}

func (tw *taintWalker) leak(m taintMask, pos token.Pos, src string) {
	for i := 0; i < 64; i++ {
		if m&(1<<i) == 0 {
			continue
		}
		if _, dup := tw.sum.leaks[i]; dup {
			continue
		}
		if src == "" {
			src = "aliased value"
		}
		tw.sum.leaks[i] = &snapLeak{pos: pos, src: "via " + src}
	}
}

func (tw *taintWalker) assign(as *ast.AssignStmt) {
	var vals []taintVal
	if len(as.Lhs) == len(as.Rhs) {
		for _, r := range as.Rhs {
			vals = append(vals, tw.exprTaint(r))
		}
	} else if len(as.Rhs) == 1 {
		// Multi-value form: taint flows to the first value only (a resolved
		// call's summary, or the value of a comma-ok form; the rest are
		// clean bools and errors).
		vals = make([]taintVal, len(as.Lhs))
		vals[0] = tw.exprTaint(as.Rhs[0])
	}
	for i, lhs := range as.Lhs {
		if i >= len(vals) {
			break
		}
		if id, ok := lhs.(*ast.Ident); ok {
			tw.bind(id, vals[i])
			continue
		}
		// Store into a field/element: taint the local variable the chain is
		// rooted at (building a result: out.Objects = t.live taints out).
		// Stores rooted at a parameter mutate live state — not a
		// snapshot-leak, ignored here.
		if vals[i].m != 0 {
			tw.taintRoot(lhs, vals[i])
		}
	}
}

// taintRoot adds val's taint to the variable an lvalue chain is rooted at
// (out.Objects[i] -> out).
func (tw *taintWalker) taintRoot(e ast.Expr, val taintVal) {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			obj := tw.info.ObjectOf(v)
			cur := tw.env[obj]
			cur.m |= val.m
			if cur.src == "" || cur.src == v.Name {
				cur.src = val.src
			}
			tw.env[obj] = cur
			return
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return
		}
	}
}

// exprTaint computes what an expression's value may alias.
func (tw *taintWalker) exprTaint(e ast.Expr) taintVal {
	switch v := e.(type) {
	case *ast.Ident:
		return tw.env[tw.info.ObjectOf(v)] // clean unless a tracked local
	case *ast.SelectorExpr:
		if tw.info.Selections[v] == nil {
			return taintVal{} // package-level reference
		}
		out := tw.through(tw.exprTaint(v.X), v)
		out.src += "." + v.Sel.Name
		return out
	case *ast.CallExpr:
		return tw.callTaint(v)
	case *ast.UnaryExpr:
		if v.Op == token.ARROW {
			return tw.through(tw.exprTaint(v.X), v)
		}
		return tw.exprTaint(v.X) // &x aliases x
	case *ast.StarExpr:
		return tw.exprTaint(v.X)
	case *ast.IndexExpr:
		return tw.through(tw.exprTaint(v.X), v)
	case *ast.SliceExpr:
		return tw.exprTaint(v.X) // a reslice aliases its operand
	case *ast.CompositeLit:
		var out taintVal
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = out.join(tw.exprTaint(el))
		}
		return out
	case *ast.TypeAssertExpr:
		return tw.exprTaint(v.X)
	case *ast.ParenExpr:
		return tw.exprTaint(v.X)
	}
	// Literals, binary expressions, closures (captures untracked): clean.
	return taintVal{}
}

// join merges another value's taint into v, keeping the first source named.
func (v taintVal) join(o taintVal) taintVal {
	if o.m != 0 {
		v.m |= o.m
		if v.src == "" {
			v.src = o.src
		}
	}
	return v
}

// callTaint propagates taint through builtins, conversions, resolved
// in-module call summaries, and methods of external containers.
func (tw *taintWalker) callTaint(call *ast.CallExpr) taintVal {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok && tw.info.Types[fun].IsBuiltin() {
		switch id.Name {
		case "append":
			var out taintVal
			for _, a := range call.Args {
				out = out.join(tw.exprTaint(a))
			}
			return out
		case "copy":
			// copy(dst, src) aliases element memory when elements are refish.
			if src := tw.exprTaint(call.Args[1]); src.m != 0 {
				if dt, ok := tw.info.TypeOf(call.Args[0]).Underlying().(*types.Slice); ok && tw.sc.refish(dt.Elem()) {
					tw.taintRoot(call.Args[0], src)
				}
			}
		}
		return taintVal{} // make, new, len, ...: fresh or not memory at all
	}
	// A conversion keeps aliasing when the target type can alias.
	if tw.info.Types[fun].IsType() {
		if len(call.Args) != 1 {
			return taintVal{}
		}
		return tw.through(tw.exprTaint(call.Args[0]), call)
	}
	recvTaint := func() taintVal {
		if sel, ok := fun.(*ast.SelectorExpr); ok && tw.info.Selections[sel] != nil {
			return tw.exprTaint(sel.X)
		}
		return taintVal{}
	}

	// Resolved in-module callees: apply leak summaries.
	for _, edge := range tw.sc.g.EdgesAt(call) {
		if edge.Callee == nil || edge.OverApprox || edge.Kind != EdgeCall {
			continue
		}
		callee := edge.Callee
		isMethod := callee.Signature().Recv() != nil
		var out taintVal
		// Map callee parameter indices to argument taints.
		for idx := range tw.sc.summarize(callee).leaks {
			var av taintVal
			if isMethod {
				idx--
			}
			if idx < 0 {
				av = recvTaint()
			} else if idx < len(call.Args) {
				av = tw.exprTaint(call.Args[idx])
			}
			if av.m != 0 {
				out.m |= av.m
				if out.src == "" {
					out.src = "result of " + callee.Name + " aliasing " + av.src
				}
			}
		}
		return out
	}

	// A method of a type outside the module (or a func-typed field), called
	// on a live receiver, hands out what the receiver holds if its result
	// can alias memory at all (atomic.Pointer[T].Load — the server's s.vols
	// idiom). Any other external or dynamic call returns a clean result.
	out := tw.through(recvTaint(), call)
	if out.m != 0 {
		out.src = "result of " + exprString(fun) + "()"
	}
	return out
}
