package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockFlow enforces the shard-locking discipline of the server (the proxy
// owns no table mutex of its own: it is a server.Server whose Origin methods
// run under that server's shard mutex):
//
//  1. Multi-shard operations take shard mutexes in sorted volume order. The
//     one sanctioned way to do that is ranging over the allShards() helper
//     (which sorts); locking each element's `mu` while ranging over anything
//     else (a map, an ad-hoc slice) takes the mutexes in nondeterministic
//     order and can deadlock against Recover.
//  2. Holding two distinct shard mutexes at once outside that loop is the
//     same hazard spelled differently.
//  3. No blocking operation while a shard mutex is held, whether it is
//     written in the locked section or reachable from it through any call
//     depth: a blocked holder stalls every other operation on the shard. The
//     discipline is enqueue under the lock, run the blocking step outside
//     it. Blocking means:
//     - a channel send, a channel receive outside a select, a range over a
//     channel, and a select without a default clause
//     - condition-variable / WaitGroup Wait calls, and time.Sleep
//     - transport sends and receives (the blockingCallNames set)
//     - acquiring a second shard mutex (rule 2 across a call)
//
// The held-lock walk is a linear, syntactic scan per function: it tracks
// Lock and Unlock calls on mutex-named fields (`mu` is a shard mutex, `fooMu`
// an auxiliary one) through nested blocks, without modeling control-flow
// joins. That is precise enough for the stack's straight-line lock sections
// and errs toward silence elsewhere. Every call made under a shard mutex is
// summarized through the call graph: deferred calls inside a callee count
// (they run before it returns, still under the caller's lock), goroutines a
// callee spawns do not (they do not inherit the lock), and a function literal
// handed to (*sync.Once).Do runs right there, so it counts as called.
// Findings are reported in the locked section, at the blocking step or at the
// call that reaches one, with the call chain.
var LockFlow = &Analyzer{
	Name:     "lockflow",
	Doc:      "sorted-order multi-shard locking; no blocking operation while a shard mutex is held, through any call depth",
	RunGraph: runLockFlow,
}

// blockingCallNames are the transport-facing calls that can block on the
// network (or on a slow peer). The lowercase names are this project's send
// wrappers.
var blockingCallNames = map[string]bool{
	"Send":           true,
	"Recv":           true,
	"send":           true,
	"sendErr":        true,
	"sendInvalidate": true,
}

// blocker describes why (and where) a function may block.
type blocker struct {
	what  string
	pos   token.Pos
	node  *FuncNode
	chain []string // calls from the site to the blocking step; empty when it is the site
}

type lockFlow struct {
	p *GraphPass
	// summaries memoizes per-function blocking info; a nil entry means
	// "does not block". visiting breaks recursion cycles (a cycle member is
	// assumed non-blocking unless something off-cycle blocks).
	summaries map[*FuncNode]*blocker
	visiting  map[*FuncNode]bool
}

func runLockFlow(p *GraphPass) {
	lf := &lockFlow{
		p:         p,
		summaries: make(map[*FuncNode]*blocker),
		visiting:  make(map[*FuncNode]bool),
	}
	for _, n := range p.Graph.Nodes {
		if body := n.Body(); body != nil {
			w := &holderWalk{lf: lf, n: n, sorted: allShardsAssignees(body)}
			w.stmts(body.List, map[string]bool{})
		}
	}
}

// --- caller side: the held-lock walk ---

// holderWalk scans one function in statement order, tracking the mutexes it
// holds (expr string -> is-shard-mutex).
type holderWalk struct {
	lf     *lockFlow
	n      *FuncNode
	sorted map[string]bool // variables assigned from allShards()
}

func (w *holderWalk) stmts(list []ast.Stmt, held map[string]bool) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func (w *holderWalk) stmt(stmt ast.Stmt, held map[string]bool) {
	if expr, shard, lock, unlock := lockCall(stmt); lock || unlock {
		if unlock {
			delete(held, expr)
			return
		}
		held[expr] = shard
		if shards := heldShards(held); len(shards) > 1 {
			w.lf.p.ReportNodef(w.n, stmt.Pos(),
				"holds multiple shard mutexes at once (%s); multi-shard operations must lock via allShards() in sorted volume order",
				strings.Join(shards, ", "))
		}
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmt(s.Body, held)
		if s.Else != nil {
			w.stmt(s.Else, held)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Cond, held)
		w.stmt(s.Body, held)
	case *ast.RangeStmt:
		w.rangeOrder(s)
		w.check(s.X, held)
		if isChan(w.n.Pkg.Info, s.X) {
			w.report(held, s.Pos(), &blocker{what: "range over channel", pos: s.Pos(), node: w.n})
		}
		w.stmt(s.Body, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.check(s.Tag, held)
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held)
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CaseClause).Body, held)
		}
	case *ast.SelectStmt:
		if !hasDefault(s) {
			w.check(s, held) // reports the select itself
		}
		for _, c := range s.Body.List {
			w.stmts(c.(*ast.CommClause).Body, held)
		}
	case *ast.GoStmt:
		// The goroutine does not inherit the spawner's locks.
	case *ast.DeferStmt:
		// defer X.Unlock() keeps X held to function end, which is what the
		// linear scan assumes; other defers run at exit, possibly after an
		// unlock — skip, err toward silence.
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	default:
		w.check(stmt, held)
	}
}

// check reports every blocking step in node (a statement or an expression)
// while a shard mutex is held.
func (w *holderWalk) check(node ast.Node, held map[string]bool) {
	if node == nil || len(heldShards(held)) == 0 {
		return
	}
	w.lf.scan(w.n, node, func(site token.Pos, b *blocker) bool {
		w.report(held, site, b)
		return true
	})
}

func (w *holderWalk) report(held map[string]bool, site token.Pos, b *blocker) {
	shards := heldShards(held)
	if len(shards) == 0 {
		return
	}
	if len(b.chain) == 0 {
		w.lf.p.ReportNodef(w.n, site,
			"blocking %s while %s is held; enqueue under the lock, run the blocking step outside it",
			b.what, shards[0])
		return
	}
	w.lf.p.ReportNodef(w.n, site,
		"call to %s while %s is held reaches blocking %s at %s (%s); enqueue under the lock, run the blocking step outside it",
		b.chain[0], shards[0], b.what, b.node.Position(b.pos), strings.Join(b.chain, " → "))
}

// rangeOrder checks rule 1: a range whose body locks <value>.mu must range
// over allShards(), directly or through a variable assigned from it.
func (w *holderWalk) rangeOrder(s *ast.RangeStmt) {
	value, ok := s.Value.(*ast.Ident)
	if !ok || !locksValueMutex(s.Body, value.Name) {
		return
	}
	switch x := s.X.(type) {
	case *ast.CallExpr:
		if lastSelector(x.Fun) == "allShards" {
			return
		}
	case *ast.Ident:
		if w.sorted[x.Name] {
			return
		}
	}
	w.lf.p.ReportNodef(w.n, s.Pos(),
		"locks each element's shard mutex while ranging over %s; iterate allShards() so shard mutexes are taken in sorted volume order",
		exprString(s.X))
}

// allShardsAssignees collects variables assigned from an allShards() call
// within the body ("shards := s.allShards()").
func allShardsAssignees(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if call, ok := as.Rhs[0].(*ast.CallExpr); ok && lastSelector(call.Fun) == "allShards" {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				out[id.Name] = true
			}
		}
		return true
	})
	return out
}

// locksValueMutex reports whether body contains <value>.mu.Lock().
func locksValueMutex(body *ast.BlockStmt, value string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "mu" {
			if base, ok := inner.X.(*ast.Ident); ok && base.Name == value {
				found = true
			}
		}
		return !found
	})
	return found
}

// isMutexChain reports whether e names a mutex by this project's
// conventions: a field or variable named `mu` (a shard mutex) or suffixed
// `Mu`/`mu` (an auxiliary one).
func isMutexChain(e ast.Expr) (name string, shard bool, ok bool) {
	last := lastSelector(e)
	switch {
	case last == "mu":
		return exprString(e), true, true
	case strings.HasSuffix(last, "Mu") || strings.HasSuffix(last, "mu"):
		return exprString(e), false, true
	}
	return "", false, false
}

// lockCall decodes a statement of the form X.Lock()/X.Unlock() (and the
// RWMutex variants) where X is mutex-named.
func lockCall(stmt ast.Stmt) (expr string, shard, lock, unlock bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return
	}
	expr, shard, ok = isMutexChain(sel.X)
	if !ok {
		return "", false, false, false
	}
	return expr, shard, lock, unlock
}

// heldShards lists the held shard mutexes, sorted.
func heldShards(held map[string]bool) []string {
	var names []string
	for e, shard := range held {
		if shard {
			names = append(names, e)
		}
	}
	sort.Strings(names)
	return names
}

// --- callee side: what a call may block on ---

// summary reports whether fn (or anything it calls) may block, or nil.
func (lf *lockFlow) summary(fn *FuncNode) *blocker {
	if b, ok := lf.summaries[fn]; ok {
		return b
	}
	if lf.visiting[fn] {
		return nil // cycle member: assume non-blocking unless proven off-cycle
	}
	lf.visiting[fn] = true
	var found *blocker
	if body := fn.Body(); body != nil {
		lf.scan(fn, body, func(_ token.Pos, b *blocker) bool {
			found = b
			return false
		})
	}
	delete(lf.visiting, fn)
	lf.summaries[fn] = found
	return found
}

// scan walks node as code of fn and calls visit at every blocking step in
// it: an operation written there (empty chain), or a call whose callee may
// block. Nested function literals are their own graph nodes, reached only if
// invoked, and are skipped — except one handed to (*sync.Once).Do, which runs
// right there. visit returns false to stop the walk.
func (lf *lockFlow) scan(fn *FuncNode, node ast.Node, visit func(site token.Pos, b *blocker) bool) {
	info := fn.Pkg.Info
	inline := map[*ast.FuncLit]bool{}
	stop := false
	found := func(site token.Pos, b *blocker) bool {
		stop = !visit(site, b)
		return false // nothing under a blocking step is looked at
	}
	direct := func(what string, pos token.Pos) bool {
		return found(pos, &blocker{what: what, pos: pos, node: fn})
	}
	var walk func(ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(nd ast.Node) bool {
			if stop {
				return false
			}
			switch v := nd.(type) {
			case *ast.FuncLit:
				return inline[v]
			case *ast.GoStmt:
				return false // spawned work does not block the spawner
			case *ast.SendStmt:
				return direct("channel send", v.Pos())
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					return direct("channel receive", v.Pos())
				}
			case *ast.RangeStmt:
				if isChan(info, v.X) {
					return direct("range over channel", v.Pos())
				}
			case *ast.SelectStmt:
				if !hasDefault(v) {
					return direct("select without default", v.Pos())
				}
				// Non-blocking select: its bodies may still block.
				for _, c := range v.Body.List {
					for _, s := range c.(*ast.CommClause).Body {
						walk(s)
					}
				}
				return false
			case *ast.CallExpr:
				return lf.call(fn, v, inline, found, direct)
			}
			return true
		})
	}
	walk(node)
}

// call classifies one call site for scan: a blocking call by name, a
// resolved callee that may block, time.Sleep, or a (*sync.Once).Do whose
// literal argument scan is to walk inline. It returns whether to descend.
func (lf *lockFlow) call(fn *FuncNode, call *ast.CallExpr, inline map[*ast.FuncLit]bool,
	found func(token.Pos, *blocker) bool, direct func(string, token.Pos) bool) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		switch name := sel.Sel.Name; {
		case name == "Wait":
			return direct("Wait (condvar/WaitGroup)", call.Pos())
		case blockingCallNames[name]:
			return direct("transport call "+exprString(sel.X)+"."+name, call.Pos())
		case name == "Lock" || name == "RLock":
			// Only in the shard discipline's packages is a `mu` a shard:
			// every leaf component (clock, obs, ...) also names its private
			// mutex `mu`, and locking one of those is not a lock-order hazard.
			if mu, shard, ok := isMutexChain(sel.X); ok && shard && Scoped("lockflow", fn.Pkg.Path) {
				return direct("second shard-mutex acquisition ("+mu+")", call.Pos())
			}
		}
	}
	for _, e := range lf.p.Graph.EdgesAt(call) {
		switch {
		case e.Callee != nil && (e.Kind == EdgeCall || e.Kind == EdgeDefer):
			if b := lf.summary(e.Callee); b != nil {
				return found(call.Pos(), &blocker{what: b.what, pos: b.pos, node: b.node,
					chain: append([]string{e.Callee.Name}, b.chain...)})
			}
		case e.Target == "time.Sleep":
			return direct("time.Sleep", call.Pos())
		case e.Target == "(*sync.Once).Do":
			if lit, ok := call.Args[0].(*ast.FuncLit); ok {
				inline[lit] = true
			}
		}
	}
	return true
}

// hasDefault reports whether a select has a default clause (never blocks).
func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// isChan reports whether x is a channel (ranging over it blocks).
func isChan(info *types.Info, x ast.Expr) bool {
	t := info.TypeOf(x)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
