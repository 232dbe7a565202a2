package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// report is the -out document: every workload's metrics plus enough about
// the run to tell two reports apart.
type report struct {
	Meta      meta              `json:"meta"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
}

// meta describes the process that produced a report. Commit is best effort:
// empty outside a git checkout.
type meta struct {
	Commit     string `json:"commit,omitempty"`
	Dirty      bool   `json:"dirty,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Drivers    int    `json:"drivers"`
	Time       string `json:"time"`
}

type workloadReport struct {
	Name       string               `json:"name"`
	Why        string               `json:"why"`
	Correct    bool                 `json:"correct"`
	Attempted  uint64               `json:"attempted"`
	Failed     uint64               `json:"failed"`
	FailedFrac float64              `json:"failed_frac"`
	EndToEnd   map[string]metric    `json:"end_to_end,omitempty"`
	Segments   map[string][]float64 `json:"segments,omitempty"`
	PerLayer   map[string]metric    `json:"per_layer,omitempty"`
	Ladders    []ladder             `json:"ladders,omitempty"`
	Guards     []guard              `json:"guards"`
}

func newReport(seed int64, seconds float64) *report {
	m := meta{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Drivers: drivers,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
		if b, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			m.Dirty = len(strings.TrimSpace(string(b))) > 0
		}
	}
	return &report{Meta: m, Seed: seed, Seconds: seconds}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// addUntraced folds in an untraced run; its end-to-end metrics are reported
// only when it ran at full length.
func (w *workloadReport) addUntraced(u *untraced, full bool) {
	if full {
		w.EndToEnd, w.Segments = u.endToEnd, u.series
	}
	w.Attempted += u.attempted
	w.Failed += u.failed
	w.Guards = append(w.Guards, u.guards...)
}

func (w *workloadReport) addTraced(t *traced) {
	w.PerLayer = t.perLayer
	w.Ladders = t.ladders
	w.Attempted += t.attempted
	w.Failed += t.failed
	w.Guards = append(w.Guards, t.guards...)
}

// finish settles correctness: no failed operation and every guard holding.
func (w *workloadReport) finish() {
	w.FailedFrac = float64(w.Failed) / float64(w.Attempted)
	w.Correct = w.Failed == 0
	for _, g := range w.Guards {
		w.Correct = w.Correct && g.OK
	}
}

func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "\n== %s ==\n", w.Name)
	for _, m := range endToEnd {
		if v, ok := w.EndToEnd[m.name]; ok {
			fmt.Fprintf(out, "%-34s %14.4f %-4s segments %.4g\n", m.name, v.Value, v.Unit, w.Segments[m.name])
		}
	}
	for _, name := range percentiles {
		if seg, ok := w.Segments[name]; ok {
			fmt.Fprintf(out, "%-34s %14.4f %-4s segments %.4g\n", "driver."+name, median(append([]float64(nil), seg...)), "us", seg)
		}
	}
	fmt.Fprintf(out, "%-34s %14g frac  (%d of %d operations)\n", "failed_frac", w.FailedFrac, w.Failed, w.Attempted)
	names := make([]string, 0, len(w.PerLayer))
	for name := range w.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := w.PerLayer[name]
		fmt.Fprintf(out, "%-34s %14.4f %s\n", name, v.Value, v.Unit)
	}
	for _, l := range w.Ladders {
		fmt.Fprintf(out, "ladder: %s\n", l.Name)
		for _, p := range l.Phases {
			fmt.Fprintf(out, "  %-32s %10.3f us\n", p.Name, p.Us)
		}
		fmt.Fprintf(out, "  %-32s %10.3f us\n", "sum of phase medians", l.SumUs)
		fmt.Fprintf(out, "  %-32s %10.3f us\n", "untraced p50", l.UntracedP50Us)
		fmt.Fprintf(out, "  %-32s %10.3f us  (%.1f%% of the untraced p50)\n", "unattributed_us",
			l.Unattributed, 100*l.Unattributed/l.UntracedP50Us)
	}
	for _, g := range w.Guards {
		verdict := "ok"
		if !g.OK {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(out, "guard %-28s %-8s %s\n", g.Name, verdict, g.Detail)
	}
}

// printResultLine prints the one-object result BENCHMARK.json describes:
// the end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (w *workloadReport) printResultLine(out io.Writer, trace int) error {
	metrics := w.EndToEnd
	if trace == 1 {
		// Only what BENCHMARK.json declares: proxy_chain's own rows stay in
		// the table above and the -out report.
		metrics = map[string]metric{}
		for name, m := range w.PerLayer {
			if !proxyOnly[name] {
				metrics[name] = m
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareReports prints, per workload and end-to-end metric, both values,
// how much worse B is than A as a share of A, and the bound; it reports
// whether any metric is worse beyond its bound or any operation failed.
func compareReports(out io.Writer, specPath, pathA, pathB string) (worse bool, err error) {
	var spec benchmarkSpec
	var a, b report
	for path, v := range map[string]any{specPath: &spec, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	inB := map[string]*workloadReport{}
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	fmt.Fprintf(out, "%-13s %-14s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb := inB[wa.Name]
		if wb == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			by := (vb.Value - va.Value) / va.Value
			if m.Better == "higher" {
				by = -by
			}
			flag := ""
			if by > m.Bound {
				flag, worse = "  EXCEEDS BOUND", true
			}
			fmt.Fprintf(out, "%-13s %-14s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n",
				wa.Name, m.Name, va.Value, vb.Value, 100*by, 100*m.Bound, flag)
		}
		for _, w := range []*workloadReport{wa, wb} {
			if !w.Correct {
				fmt.Fprintf(out, "%-13s failed_frac %g with %d guard(s): NOT CORRECT\n", w.Name, w.FailedFrac, len(w.Guards))
				worse = true
			}
		}
	}
	return worse, nil
}
