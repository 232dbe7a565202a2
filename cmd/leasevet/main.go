// Command leasevet runs the project's static analyzer suite (internal/lint)
// over the lease stack and exits non-zero on any finding. It is the `make
// lint` entry point and runs in CI; see DESIGN.md's "Static analysis"
// section for what each analyzer enforces and why.
//
// Usage:
//
//	leasevet [-list] [-only analyzer[,analyzer]] [-json] [-graph]
//	         [-timing] [packages]
//
// Packages default to ./... relative to the current directory. Findings
// print as file:line:col: message (analyzer); -json prints them as a JSON
// array instead (the CI artifact format). A finding is suppressed by
// annotating its line (or the line above) with
//
//	//lint:allow <analyzer> — reason
//
// When the full suite runs (no -only), suppressions that no longer suppress
// anything are themselves reported under the staleallow name, so the escape
// hatch cannot rot. -graph dumps the interprocedural call graph (one "caller
// -> callee [kind]" line per edge) for debugging the reachability analyzers,
// and -timing reports the load's (go list + type-check) and each analyzer's
// wall time and finding counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

// load is lint.Load; the tests memoize the one load of the repository that
// several of them would otherwise repeat.
var load = lint.Load

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json output record (stable field names: CI parses it).
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leasevet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	dir := fs.String("dir", ".", "directory to resolve package patterns from")
	asJSON := fs.Bool("json", false, "print findings as a JSON array")
	graph := fs.Bool("graph", false, "dump the interprocedural call graph and exit")
	timing := fs.Bool("timing", false, "report the load's and each analyzer's wall time and finding counts")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	fullSuite := *only == ""
	if !fullSuite {
		want := map[string]bool{}
		for _, n := range strings.Split(*only, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var subset []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				subset = append(subset, a)
				delete(want, a.Name)
			}
		}
		for n := range want {
			fmt.Fprintf(stderr, "leasevet: unknown analyzer %q\n", n)
			return 2
		}
		analyzers = subset
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	start := time.Now()
	pkgs, err := load(*dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	loadTime := time.Since(start)

	// Stale-allow detection needs the full suite: under -only, an allow for
	// a deselected analyzer legitimately suppresses nothing this run.
	res := lint.RunSuite(pkgs, analyzers, lint.SuiteOptions{
		Scoped:      true,
		StaleAllows: fullSuite,
	})

	if *graph {
		if res.Graph == nil {
			res.Graph = lint.BuildGraph(pkgs)
		}
		res.Graph.Dump(stdout)
		return 0
	}
	if *timing {
		fmt.Fprintf(stderr, "leasevet: %-12s %8.2fms %4d package(s)\n",
			"load", float64(loadTime.Microseconds())/1000, len(pkgs))
		for _, t := range res.Timings {
			fmt.Fprintf(stderr, "leasevet: %-12s %8.2fms %4d finding(s)\n",
				t.Name, float64(t.Duration.Microseconds())/1000, t.Findings)
		}
	}

	diags := res.Diagnostics
	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, jsonFinding{
				Analyzer: d.Analyzer,
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Column:   d.Pos.Column,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "leasevet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
