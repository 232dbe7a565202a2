package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// CtxClean flags goroutines that loop forever on blocking channel
// operations without ever consulting a shutdown signal. Every long-lived
// goroutine in the live stack (accept loops, sweepers, invalidation
// flushers, read pumps) must observe its component's done/closed channel
// (or a context's Done()), or Close hangs waiting for it or leaks it. The
// dynamic twin is internal/proxy's TestNoGoroutineOutlivesClose, which sees
// a leak wherever the loop sits but only on the paths it drives.
//
// Detection is syntactic: for each `go` statement, resolve the spawned body
// (a function literal or a same-package method/function), find `for {}`
// loops that perform blocking channel operations, and require the function
// to reference a shutdown signal somewhere (a name like done/closed/gone/
// stop/quit/shutdown, or a .Done() call). Goroutines whose loops exit by
// other means (I/O errors from a closed connection, bounded iteration) have
// no unguarded infinite blocking loop and pass untouched.
var CtxClean = &Analyzer{
	Name: "ctxclean",
	Doc:  "flags spawned goroutines that block forever without observing a shutdown signal",
	Run:  runCtxClean,
}

// shutdownNames are the identifier names (case-insensitive) that count as
// shutdown signals in this codebase: Server.closed, Client.done, connCtx
// .gone, proxy.closed, stop channels.
var shutdownNames = map[string]bool{
	"done":     true,
	"closed":   true,
	"gone":     true,
	"stop":     true,
	"stopc":    true,
	"stopch":   true,
	"quit":     true,
	"shutdown": true,
}

func runCtxClean(pass *Pass) {
	// Index package-level functions and methods by name so `go s.loop()`
	// resolves to the loop body.
	decls := map[string]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[fd.Name.Name] = fd
			}
		}
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			var name string
			switch fun := gs.Call.Fun.(type) {
			case *ast.FuncLit:
				body = fun.Body
				name = "literal"
			default:
				callee := lastSelector(fun)
				if fd, ok := decls[callee]; ok {
					body = fd.Body
					name = callee
				}
			}
			if body == nil {
				return true // cross-package call; out of syntactic reach
			}
			if hasUnguardedBlockingLoop(body) && !referencesShutdown(body) {
				pass.Reportf(gs.Pos(),
					"goroutine %s loops on blocking channel operations without observing a shutdown signal (done/closed channel or ctx.Done()); Close will hang or leak it",
					name)
			}
			return true
		})
	}
}

// hasUnguardedBlockingLoop reports whether body contains an infinite `for {}`
// loop (not inside a nested function literal) that performs a blocking
// channel operation: a send, a receive, or a select without a default.
func hasUnguardedBlockingLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
			return true
		}
		if loopHasBlockingChanOp(loop.Body) {
			found = true
		}
		return true
	})
	return found
}

func loopHasBlockingChanOp(body *ast.BlockStmt) bool {
	blocking := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			blocking = true
		case *ast.UnaryExpr:
			if v.Op.String() == "<-" {
				blocking = true
			}
		case *ast.SelectStmt:
			if !hasDefault(v) {
				blocking = true
			}
			return false // don't double-count the comm clauses
		}
		return true
	})
	return blocking
}

// referencesShutdown reports whether the function body mentions a shutdown
// signal anywhere: an identifier/selector with a shutdown-ish name, or a
// received `<-x.Done()` (context.Context style). A bare wg.Done() call is
// deliberately NOT a shutdown observation — it announces this goroutine's
// own exit, it does not watch for anyone else's.
func referencesShutdown(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			if isShutdownName(v.Name) {
				found = true
			}
		case *ast.SelectorExpr:
			if isShutdownName(v.Sel.Name) {
				found = true
			}
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				if call, ok := v.X.(*ast.CallExpr); ok && lastSelector(call.Fun) == "Done" {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// isShutdownName matches shutdown-channel naming case-insensitively, except
// the exact method name Done (wg.Done() announces exit, it doesn't watch
// for one; the watching form <-ctx.Done() is handled separately).
func isShutdownName(name string) bool {
	return name != "Done" && shutdownNames[strings.ToLower(name)]
}
