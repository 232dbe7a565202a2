package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sim/algo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload bundles a merged read+write trace with its object universe.
type Workload struct {
	Name     string
	Trace    trace.Trace
	Universe *workload.Universe
}

// Scale selects workload size.
type Scale int

// Workload scales. Small keeps unit tests fast; Full approximates the
// paper's trace proportions (Section 4.2) at laptop scale.
const (
	ScaleSmall Scale = iota + 1
	ScaleFull
)

// The workloads are generated once per process and scale, the default and
// its bursty variant together; a run at one scale never pays for the other.
var (
	wlOnce [2]sync.Once
	wls    [2][2]Workload // [small, full][default, bursty]
)

// DefaultWorkload returns the standard evaluation workload (memoized: the
// generation cost is paid once per process).
func DefaultWorkload(sc Scale) Workload { return workloads(sc)[0] }

// BurstyWorkload returns the Section 5.3 "bursty write" variant: each write
// also modifies k ~ Exp(10) other objects of the same volume.
func BurstyWorkload(sc Scale) Workload { return workloads(sc)[1] }

func workloads(sc Scale) [2]Workload {
	i, name, rc := 0, "small", smallReadConfig()
	if sc == ScaleFull {
		i, name, rc = 1, "full", workload.DefaultReadConfig()
	}
	wlOnce[i].Do(func() {
		w := build(name, rc)
		wls[i] = [2]Workload{w, burstify(w)}
	})
	return wls[i]
}

func smallReadConfig() workload.ReadConfig {
	c := workload.DefaultReadConfig()
	c.Clients = 12
	c.Servers = 40
	c.Objects = 1200
	c.Duration = 7 * 24 * time.Hour
	return c
}

func build(name string, rc workload.ReadConfig) Workload {
	reads, u, err := workload.GenerateReads(rc)
	if err != nil {
		panic(fmt.Sprintf("bench: generate reads: %v", err))
	}
	writes, err := workload.SynthesizeWrites(reads, workload.DefaultWriteConfig())
	if err != nil {
		panic(fmt.Sprintf("bench: synthesize writes: %v", err))
	}
	return Workload{Name: name, Trace: trace.Merge(reads, writes), Universe: u}
}

func burstify(w Workload) Workload {
	var reads, writes trace.Trace
	for _, e := range w.Trace {
		if e.Op == trace.OpWrite {
			writes = append(writes, e)
		} else {
			reads = append(reads, e)
		}
	}
	bursty, err := workload.MakeBursty(writes, w.Universe, workload.DefaultBurstyConfig())
	if err != nil {
		panic(fmt.Sprintf("bench: bursty transform: %v", err))
	}
	return Workload{Name: w.Name + "-bursty", Trace: trace.Merge(reads, bursty), Universe: w.Universe}
}

// Run simulates one algorithm over the workload and returns the recorder
// and the simulation end time for state averaging.
func Run(w Workload, spec Spec) (*metrics.Recorder, sim.Result) {
	rec, res, err := simulate(w.Trace, spec.Kind != KindPoll, spec.New)
	if err != nil {
		panic(fmt.Sprintf("bench: simulate %s: %v", spec.Name(), err))
	}
	return rec, res
}

// simulate runs a trace through an algorithm. Every figure and ablation
// doubles as an invariant check: a strong algorithm (all but Poll(t), whose
// stale reads are Figure 5's data) that serves a read older than its
// server's committed version is broken, so simulate panics rather than
// produce numbers from an inconsistent run.
func simulate(tr trace.Trace, strong bool, mk func(env *sim.Env) sim.Algorithm) (*metrics.Recorder, sim.Result, error) {
	rec, res, err := sim.Simulate(tr, mk)
	if err != nil {
		return nil, sim.Result{}, err
	}
	if _, stale := rec.ReadStats(); strong && stale > 0 {
		panic(fmt.Sprintf("bench: %s served %d stale reads", res.Algorithm, stale))
	}
	return rec, res, nil
}

// Series is one figure line: a label and parallel x/y slices.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// WriteTSV emits the series as tab-separated "label x y" rows.
func WriteTSV(w io.Writer, series []Series) error {
	for _, s := range series {
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s\t%g\t%g\n", s.Label, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// DefaultTimeouts is the x-axis of Figures 5-7: object/poll timeouts in
// seconds, log-spaced like the paper's.
var DefaultTimeouts = []float64{10, 100, 1000, 1e4, 1e5, 1e6, 1e7}

// Fig5Families are the algorithm families compared in Figure 5.
func Fig5Families() []Spec {
	return []Spec{
		Poll(0),       // swept
		Callback(),    // flat
		Lease(0),      // swept
		Volume(10, 0), // swept object timeout, tv=10
		Volume(100, 0),
		Delay(10, 0),
		Delay(100, 0),
	}
}

// Fig5 computes total client/server messages versus object timeout for each
// family. The extra StaleRates series (one per Poll timeout) backs the
// paper's stale-read callouts.
func Fig5(w Workload, timeouts []float64) (series []Series, staleRates Series) {
	staleRates = Series{Label: "Poll-stale-fraction"}
	for _, fam := range Fig5Families() {
		s := Series{Label: fam.Family()}
		for _, t := range timeouts {
			spec := fam
			if fam.Kind != KindCallback {
				spec = fam.WithT(t)
			}
			rec, _ := Run(w, spec)
			s.X = append(s.X, t)
			s.Y = append(s.Y, float64(rec.Totals().Messages))
			if fam.Kind == KindPoll {
				staleRates.X = append(staleRates.X, t)
				staleRates.Y = append(staleRates.Y, rec.StaleRate())
			}
		}
		series = append(series, s)
	}
	return series, staleRates
}

// FigState computes Figures 6 and 7: the time-averaged consistency state
// (bytes) at the rank-th most popular server (rank 0 = Figure 6's most
// popular, rank 9 = Figure 7's tenth most popular) versus object timeout.
func FigState(w Workload, timeouts []float64, rank int) []Series {
	target := nthServer(w, rank)
	var series []Series
	for _, fam := range Fig5Families() {
		s := Series{Label: fam.Family()}
		for _, t := range timeouts {
			spec := fam
			if fam.Kind != KindCallback {
				spec = fam.WithT(t)
			}
			rec, res := Run(w, spec)
			var avg float64
			if ss, ok := rec.Server(target); ok {
				avg = ss.State.Average(res.End)
			}
			s.X = append(s.X, t)
			s.Y = append(s.Y, avg)
		}
		series = append(series, s)
	}
	return series
}

// nthServer returns the rank-th most-read server of the workload.
func nthServer(w Workload, rank int) string {
	top := trace.TopServers(w.Trace, rank+1)
	if len(top) <= rank {
		panic(fmt.Sprintf("bench: workload has only %d servers, need rank %d", len(top), rank))
	}
	return top[rank]
}

// Fig8Specs are the configurations compared in the burst-load figures: the
// paper pairs short-timeout Poll and Lease against long-object-lease
// Callback/Volume and the Delay variant.
func Fig8Specs() []Spec {
	return []Spec{
		Poll(100),
		Lease(100),
		Callback(),
		Volume(10, 1e5),
		Delay(10, 1e5),
	}
}

// FigLoad computes Figures 8 and 9: for each algorithm, the cumulative
// histogram of 1-second periods with load >= x messages at the workload's
// most heavily loaded server. Pass the default workload for Figure 8 and
// the bursty workload for Figure 9.
func FigLoad(w Workload) []Series {
	var series []Series
	for _, spec := range Fig8Specs() {
		rec, _ := Run(w, spec)
		names := rec.Servers()
		if len(names) == 0 {
			series = append(series, Series{Label: spec.Name()})
			continue
		}
		ss, _ := rec.Server(names[0]) // most heavily loaded under THIS algorithm
		loads, periods := ss.Load.Cumulative()
		s := Series{Label: spec.Name()}
		for i := range loads {
			s.X = append(s.X, float64(loads[i]))
			s.Y = append(s.Y, float64(periods[i]))
		}
		series = append(series, s)
	}
	return series
}

// PeakLoad reports the busiest 1-second message count at the most loaded
// server for a spec — the headline number of Section 5.3.
func PeakLoad(w Workload, spec Spec) int {
	rec, _ := Run(w, spec)
	names := rec.Servers()
	if len(names) == 0 {
		return 0
	}
	ss, _ := rec.Server(names[0])
	return ss.Load.Peak()
}

// simRunGrouped runs the grouped Volume algorithm over the workload.
func simRunGrouped(w Workload, tv, t float64, groups int) (*metrics.Recorder, sim.Result, error) {
	return simulate(w.Trace, true, func(env *sim.Env) sim.Algorithm {
		return algo.NewVolumeGrouped(env, Secs(tv), Secs(t), groups)
	})
}
