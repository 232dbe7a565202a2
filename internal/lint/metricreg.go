package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// MetricReg enforces the metric registration hygiene of the obs layer:
//
//  1. Every metric family registered against the obs registry carries the
//     `lease_` prefix, so one scrape namespace holds the whole stack and
//     dashboards can glob it.
//  2. GaugeFunc and RegisterHistogram replace any previous registration
//     under the same name (unlike Counter/Gauge/Histogram, which
//     get-or-create), so registering the same literal name twice in one
//     package silently drops the first callback — always a bug.
//  3. Observer internals (Tracer, Metrics, Spans fields) must be reached
//     through the nil-safe wrappers (Emit, Reg, SpanRec, Tracing), never by
//     direct field access through a config's Obs — a nil *Observer is the
//     documented "observability off" state and direct access panics on it.
//
// Name analysis is literal-based: names built through a helper
// (name("lease_x")), fmt.Sprintf, or a `"lease_x"+labels` concatenation are
// resolved to their leading literal; names that are entirely computed are
// skipped.
var MetricReg = &Analyzer{
	Name: "metricreg",
	Doc:  "enforces lease_ metric naming, unique GaugeFunc registration, and nil-safe Observer access",
	Run:  runMetricReg,
}

// registrationMethods are the obs.Registry entry points that take a metric
// family name as their first argument. The bool marks replace-semantics
// registrars, for which duplicate literal names are reported.
var registrationMethods = map[string]bool{
	"Counter":           false,
	"Gauge":             false,
	"Histogram":         false,
	"GaugeFunc":         true,
	"RegisterHistogram": true,
}

// observerFields are the raw Observer fields that have nil-safe accessors.
var observerFields = map[string]string{
	"Tracer":  "Emit/Tracing",
	"Metrics": "Reg",
	"Spans":   "SpanRec",
}

func runMetricReg(pass *Pass) {
	seen := map[string]bool{} // replace-semantics literal names, package-wide
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkRegistration(pass, call, seen)
				return true
			})
		}
	}
	for _, f := range pass.Files {
		checkObserverFieldAccess(pass, f)
	}
}

// checkRegistration validates one potential registry registration call.
func checkRegistration(pass *Pass, call *ast.CallExpr, seen map[string]bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return
	}
	replaces, isReg := registrationMethods[sel.Sel.Name]
	if !isReg {
		return
	}
	lit, exact := literalMetricName(call.Args[0])
	if lit == "" {
		return // entirely computed name; out of reach for a syntactic check
	}
	if !strings.HasPrefix(lit, "lease_") {
		pass.Reportf(call.Pos(),
			"metric %q lacks the lease_ prefix; all families share the lease_ scrape namespace", lit)
	}
	if replaces && exact {
		if seen[lit] {
			pass.Reportf(call.Pos(),
				"duplicate %s registration for %q; the later registration silently replaces the earlier callback",
				sel.Sel.Name, lit)
		}
		seen[lit] = true
	}
}

// literalMetricName resolves the leading string literal of a metric-name
// expression. exact reports whether the literal is the complete name (a
// bare string literal) rather than a prefix of a computed one.
func literalMetricName(e ast.Expr) (name string, exact bool) {
	switch v := e.(type) {
	case *ast.BasicLit:
		if v.Kind == token.STRING {
			return strings.Trim(v.Value, `"`), true
		}
	case *ast.BinaryExpr:
		n, _ := literalMetricName(v.X)
		return n, false
	case *ast.CallExpr:
		// A naming helper (name("lease_x")) or fmt.Sprintf("lease_x_%s", ...):
		// the first argument carries the literal.
		if len(v.Args) > 0 {
			n, _ := literalMetricName(v.Args[0])
			return n, false
		}
	}
	return "", false
}

// checkObserverFieldAccess flags direct access to Observer internals
// through an Obs config field (x.cfg.Obs.Metrics and friends).
func checkObserverFieldAccess(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		wrapper, isField := observerFields[sel.Sel.Name]
		if !isField {
			return true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "Obs" {
			pass.Reportf(sel.Pos(),
				"direct access to %s.%s panics when the observer is nil; use the nil-safe wrapper %s",
				exprString(sel.X), sel.Sel.Name, wrapper)
		}
		return true
	})
}
