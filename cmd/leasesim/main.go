// Command leasesim runs the trace-driven consistency simulator of Section 4
// over one or more algorithms and reports the paper's metrics: messages,
// bytes, stale reads, per-server state, and peak per-second load.
//
// Usage:
//
//	leasesim -algo 'volume(10,100000)' [-algo ...] [-trace file] [-bu file]
//
// With no -trace/-bu, the built-in default synthetic workload is used.
// Algorithms are written in the paper's notation: pollEachRead, poll(t),
// callback, lease(t), volume(tv,t), delay(tv,t[,d]) with d omitted or
// "inf" for ∞. It is a batch run: it prints its results and serves nothing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

type algoList []string

func (a *algoList) String() string     { return strings.Join(*a, ",") }
func (a *algoList) Set(v string) error { *a = append(*a, v); return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "leasesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var algos algoList
	flag.Var(&algos, "algo", "algorithm spec (repeatable), e.g. volume(10,100000)")
	traceFile := flag.String("trace", "", "text-format trace file (default: built-in synthetic workload)")
	buFile := flag.String("bu", "", "Boston University Mosaic trace file (reads only; writes are synthesized)")
	topServers := flag.Int("top", 3, "how many busiest servers to detail")
	classes := flag.Bool("classes", false, "print the per-message-class breakdown")
	flag.Parse()

	if len(algos) == 0 {
		algos = algoList{
			"poll(100000)", "callback", "lease(100000)",
			"volume(10,100000)", "delay(10,100000)",
		}
	}

	w, err := loadWorkload(*traceFile, *buFile)
	if err != nil {
		return err
	}
	st := trace.Summarize(w.Trace)
	fmt.Printf("workload: %d events (%d reads, %d writes), %d clients, %d servers, %d objects, span %v\n\n",
		st.Events, st.Reads, st.Writes, st.Clients, st.Servers, st.Objects, st.Duration)

	return report(os.Stdout, w, algos, *topServers, *classes)
}

// report runs each algorithm over w and prints its row as soon as it
// finishes — the run's only progress signal — followed by its busiest
// servers and, with classes, its per-message-class breakdown.
func report(out io.Writer, w bench.Workload, algos []string, topServers int, classes bool) error {
	fmt.Fprintf(out, "%-28s %12s %14s %10s %12s %10s\n",
		"algorithm", "messages", "bytes", "stale", "stale-rate", "peak/s")
	for _, spec := range algos {
		s, err := bench.ParseSpec(spec)
		if err != nil {
			return err
		}
		rec, res := bench.Run(w, s)
		tot := rec.Totals()
		reads, stale := rec.ReadStats()
		_ = reads
		peak := 0
		if names := rec.Servers(); len(names) > 0 {
			ss, _ := rec.Server(names[0])
			peak = ss.Load.Peak()
		}
		fmt.Fprintf(out, "%-28s %12d %14d %10d %11.3f%% %10d\n",
			res.Algorithm, tot.Messages, tot.Bytes, stale, rec.StaleRate()*100, peak)

		if classes {
			for class := metrics.MsgReadValidate; class <= metrics.MsgData; class++ {
				if n := tot.ByClass[class]; n > 0 {
					fmt.Fprintf(out, "    class %-18s %d\n", class, n)
				}
			}
		}
		names := rec.Servers()
		if topServers > 0 {
			n := topServers
			if n > len(names) {
				n = len(names)
			}
			for i := 0; i < n; i++ {
				ss, _ := rec.Server(names[i])
				fmt.Fprintf(out, "    server %-24s msgs=%-10d avg-state=%-10.0f peak-load=%d/s\n",
					names[i], ss.Counter.Messages, ss.State.Average(res.End), ss.Load.Peak())
			}
		}
	}
	return nil
}

func loadWorkload(traceFile, buFile string) (bench.Workload, error) {
	switch {
	case traceFile != "" && buFile != "":
		return bench.Workload{}, fmt.Errorf("-trace and -bu are mutually exclusive")
	case traceFile != "":
		f, err := os.Open(traceFile)
		if err != nil {
			return bench.Workload{}, err
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return bench.Workload{}, err
		}
		tr.Sort()
		return bench.Workload{Name: traceFile, Trace: tr}, nil
	case buFile != "":
		f, err := os.Open(buFile)
		if err != nil {
			return bench.Workload{}, err
		}
		defer f.Close()
		reads, err := trace.ReadBU(f)
		if err != nil {
			return bench.Workload{}, err
		}
		reads.Sort()
		// Synthesize writes per Section 4.2 over the real reads.
		tr, err := withSyntheticWrites(reads)
		if err != nil {
			return bench.Workload{}, err
		}
		return bench.Workload{Name: buFile, Trace: tr}, nil
	default:
		return bench.DefaultWorkload(bench.ScaleFull), nil
	}
}

// withSyntheticWrites merges Section 4.2's synthetic write workload into a
// real read trace.
func withSyntheticWrites(reads trace.Trace) (trace.Trace, error) {
	writes, err := workload.SynthesizeWrites(reads, workload.DefaultWriteConfig())
	if err != nil {
		return nil, err
	}
	return trace.Merge(reads, writes), nil
}
