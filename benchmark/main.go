// Command benchmark is the end-to-end lease benchmark: real server, proxy
// and client instances in one process over loopback TCP, driven closed-loop
// by two goroutines through four scripted workloads. See README.md.
//
//	go run ./benchmark -seed 1 -out run.json      every workload, untraced then traced
//	go run ./benchmark -workload lease_miss -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare a.json b.json     exit 2 if b is worse than a beyond a bound
//
// With -workload and -trace given, the last line of standard output is the
// one-object JSON result BENCHMARK.json describes.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four)")
		seed     = flag.Int64("seed", 1, "picks each driver's object visit order and payload bytes")
		seconds  = flag.Float64("seconds", 20, "timed seconds per workload, split into 5 segments")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run; -1: both")
		out      = flag.String("out", "", "write the full report as JSON to this file")
		outDir   = flag.String("outdir", "benchmark/out", "directory for trace-<workload>.jsonl")
		compare  = flag.Bool("compare", false, "compare two -out reports: benchmark -compare A.json B.json")
		specPath = flag.String("spec", "BENCHMARK.json", "metric directions and bounds for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareReports(os.Stdout, *specPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(2)
		}
		return
	}

	run := specs
	if *workload != "" {
		s := specByName(*workload)
		if s == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		run = []*spec{s}
	}
	rep := newReport(*seed, *seconds)
	ok := true
	for _, s := range run {
		w, err := measure(s, *seed, *seconds, *trace, *outDir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
		w.print(os.Stdout)
		rep.Workloads = append(rep.Workloads, w)
		ok = ok && w.Correct
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fatal(err)
		}
	}
	if *workload != "" && *trace >= 0 {
		if err := rep.Workloads[0].printResultLine(os.Stdout, *trace); err != nil {
			fatal(err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// measure runs one workload: untraced for the end-to-end metrics, then
// traced for the per-layer ones. A traced-only run still needs the untraced
// run before it (see runTraced), so it takes a quarter-length one.
func measure(s *spec, seed int64, seconds float64, trace int, outDir string) (*workloadReport, error) {
	w := &workloadReport{Name: s.name, Why: s.why}
	opt := runOpts{seconds: seconds, scale: 1, outDir: outDir}
	if trace == 1 {
		opt.seconds = seconds / 4
	}
	ref, err := runUntraced(s, seed, opt)
	if err != nil {
		return nil, err
	}
	w.addUntraced(ref, trace != 1)
	if trace != 0 {
		tr, err := runTraced(s, seed, opt, ref)
		if err != nil {
			return nil, err
		}
		w.addTraced(tr)
	}
	w.finish()
	return w, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
