package lint

import (
	"go/ast"
	"go/types"
)

// forbiddenTimeFuncs are the package-time entry points that read or wait on
// the system clock. Type and constant uses (time.Time, time.Second,
// time.ParseDuration) are fine — only sampling the clock diverges the live
// timeline from a simulated one.
var forbiddenTimeFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// ClockCheck forbids direct clock reads from package time (time.Now,
// time.Sleep, time.After, time.Since, time.Until, ...) in the lease stack.
// All lease mathematics must flow through the injected clock.Clock, or the
// paper's min(t, t_v) staleness bound only holds on the system's timeline and
// cannot be exercised under simulated time. The sanctioned single read for a
// deadline check is Clock.Mono — one monotonic reading, what time.Since does
// underneath — so a holder that wants time.Since's price asks the injected
// clock for it; Clock.Now is for stamps. Legitimate direct sites (benchmark
// timing, process-lifetime stamps) opt out with //lint:allow clockcheck.
var ClockCheck = &Analyzer{
	Name: "clockcheck",
	Doc:  "forbids time.Now/Sleep/After/Since/Until in lease code; use the injected clock.Clock (Mono for deadlines, Now for stamps)",
	Run:  runClockCheck,
}

func runClockCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			base, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			// Whatever the file calls its import, and not a package that
			// merely shares the name.
			pn, ok := pass.Info.Uses[base].(*types.PkgName)
			if ok && pn.Imported().Path() == "time" && forbiddenTimeFuncs[sel.Sel.Name] {
				pass.Reportf(call.Pos(),
					"time.%s reads the system clock; use the injected clock.Clock (Clock.Mono for a deadline check, Clock.Now for a stamp) so simulated and live timelines agree",
					sel.Sel.Name)
			}
			return true
		})
	}
}
