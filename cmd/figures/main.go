// Command figures regenerates every figure and table of the paper's
// evaluation (Section 5) and writes the data series as TSV files plus a
// summary to stdout.
//
// Usage:
//
//	figures [-fig N | -all] [-out dir] [-scale small|full]
//
//	figures -all -out results/      # everything the paper reports
//	figures -fig 5                  # just Figure 5's series
//	figures -table1                 # Table 1's analytic cost model
//	figures -callouts               # Section 5.1's headline percentages
//
// -live renders a RUNNING node's load timeline instead of the simulator: it
// reads a /debug/load dump (URL or file saved from one) and emits the same
// cumulative 1s-period load histogram the simulator produces for Figures
// 8/9, so live and simulated burst curves are directly comparable:
//
//	figures -live http://127.0.0.1:7401/debug/load -out results/
//	figures -live dump.json
//
// -cost does the same for the wire-path cost accounting: it reads a
// /debug/cost dump (URL, or a file saved from one — e.g. leased's after a
// leasebench run) and emits figcost.tsv, per-kind live message counts labelled
// with the simulator's message-class names so the live protocol mix lines
// up against the Figure 5-7 message accounting:
//
//	figures -cost http://127.0.0.1:7401/debug/cost
//	figures -cost cost.json -out results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/cost"
	"repro/internal/loadtl"
	"repro/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run() error {
	fig := flag.Int("fig", 0, "figure number to regenerate (5-9)")
	all := flag.Bool("all", false, "regenerate every figure and table")
	table1 := flag.Bool("table1", false, "print Table 1's analytic model")
	callouts := flag.Bool("callouts", false, "print Section 5.1's headline comparisons")
	ablations := flag.Bool("ablations", false, "run the DESIGN.md ablation sweeps (d, t_v, locality)")
	outDir := flag.String("out", ".", "directory for TSV output")
	scaleName := flag.String("scale", "small", "workload scale: small or full")
	live := flag.String("live", "", "render a live /debug/load dump (URL or file) as a cumulative load histogram instead of simulating")
	costSrc := flag.String("cost", "", "render a live /debug/cost dump (URL or file) as per-kind message counts in the Figure 5-7 TSV shape")
	flag.Parse()

	scale := bench.ScaleSmall
	if *scaleName == "full" {
		scale = bench.ScaleFull
	} else if *scaleName != "small" {
		return fmt.Errorf("unknown scale %q", *scaleName)
	}

	if *live != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return emitLive(*live, *outDir)
	}
	if *costSrc != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return emitCost(*costSrc, *outDir)
	}
	if !*all && *fig == 0 && !*table1 && !*callouts && !*ablations {
		*all = true
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	if *table1 || *all {
		if err := printTable1(); err != nil {
			return err
		}
	}
	if *callouts || *all {
		if err := printCallouts(scale); err != nil {
			return err
		}
	}
	figs := []int{}
	if *fig != 0 {
		figs = append(figs, *fig)
	}
	if *all {
		figs = []int{5, 6, 7, 8, 9}
	}
	for _, f := range figs {
		if err := emitFigure(f, scale, *outDir); err != nil {
			return err
		}
	}
	if *ablations || *all {
		printAblations(scale)
	}
	return nil
}

// fetchDump loads a loadtl dump from a /debug/load URL or a file holding
// one.
func fetchDump(src string) (loadtl.Dump, error) {
	var (
		raw []byte
		err error
	)
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, herr := http.Get(src)
		if herr != nil {
			return loadtl.Dump{}, herr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return loadtl.Dump{}, fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		raw, err = io.ReadAll(resp.Body)
	} else {
		raw, err = os.ReadFile(src)
	}
	if err != nil {
		return loadtl.Dump{}, err
	}
	var d loadtl.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return loadtl.Dump{}, fmt.Errorf("decode %s: %w (expected a /debug/load dump)", src, err)
	}
	return d, nil
}

// emitLive turns a live load-timeline dump into figlive.tsv, the same
// cumulative 1s-period histogram shape as the simulated Figures 8/9.
func emitLive(src, outDir string) error {
	d, err := fetchDump(src)
	if err != nil {
		return err
	}
	loads, periods := d.Cumulative()
	if len(loads) == 0 {
		return fmt.Errorf("%s: timeline has no busy seconds (drive some traffic first)", src)
	}
	label := "live"
	if d.Node != "" {
		label = "live-" + d.Node
	}
	s := bench.Series{Label: label}
	for i := range loads {
		s.X = append(s.X, float64(loads[i]))
		s.Y = append(s.Y, float64(periods[i]))
	}

	path := filepath.Join(outDir, "figlive.tsv")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := bench.WriteTSV(out, []bench.Series{s}); err != nil {
		return err
	}

	fmt.Printf("== Live load: cumulative 1s-period histogram for %q -> %s ==\n", d.Node, path)
	fmt.Printf("   window=%ds busy=%d idle=%d peak=%d msg/s mean=%.1f msg/s burst-ratio=%.1f\n",
		d.Burst.WindowSeconds, d.Burst.BusySeconds, d.Burst.IdleSeconds,
		d.Burst.Peak, d.Burst.Mean, d.Burst.Ratio)
	for i := range loads {
		fmt.Printf("   load>=%-6d %d period(s)\n", loads[i], periods[i])
	}
	return nil
}

// kindClass maps a wire kind name from a cost dump onto the simulator's
// message-class label (metrics.MsgClass), so live per-kind counts and the
// simulator's Figure 5-7 message accounting share a vocabulary. Kinds the
// simulator does not model (session setup, client-driven writes) keep a
// kebab-case version of their wire name.
func kindClass(kind string) string {
	switch kind {
	case "ReqObjLease":
		return metrics.MsgObjLeaseReq.String()
	case "ObjLease":
		return metrics.MsgObjLease.String()
	case "ReqVolLease":
		return metrics.MsgVolLeaseReq.String()
	case "VolLease":
		return metrics.MsgVolLease.String()
	case "Invalidate":
		return metrics.MsgInvalidate.String()
	case "AckInvalidate":
		return metrics.MsgAckInvalidate.String()
	case "MustRenewAll":
		return metrics.MsgMustRenewAll.String()
	case "RenewObjLeases":
		return metrics.MsgRenewObjLeases.String()
	case "InvalRenew":
		return metrics.MsgInvalRenew.String()
	case "Hello":
		return "hello"
	case "WriteReq":
		return "write-req"
	case "WriteReply":
		return "write-reply"
	case "Error":
		return "error"
	default:
		return strings.ToLower(kind)
	}
}

// fetchCostDump loads a cost dump from a /debug/cost URL or a file holding
// one (e.g. leased's /debug/cost saved after a leasebench run).
func fetchCostDump(src string) (cost.Dump, error) {
	var (
		raw []byte
		err error
	)
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		resp, herr := http.Get(src)
		if herr != nil {
			return cost.Dump{}, herr
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return cost.Dump{}, fmt.Errorf("GET %s: %s", src, resp.Status)
		}
		raw, err = io.ReadAll(resp.Body)
	} else {
		raw, err = os.ReadFile(src)
	}
	if err != nil {
		return cost.Dump{}, err
	}
	var d cost.Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		return cost.Dump{}, fmt.Errorf("decode %s: %w (expected a /debug/cost dump)", src, err)
	}
	return d, nil
}

// emitCost turns a live cost dump into figcost.tsv: one row per message
// class, y = live message count — the per-kind counterpart of the
// simulator's Figure 5-7 message totals.
func emitCost(src, outDir string) error {
	d, err := fetchCostDump(src)
	if err != nil {
		return err
	}
	if len(d.Kinds) == 0 {
		return fmt.Errorf("%s: cost dump has no per-kind traffic (drive some load first)", src)
	}
	series := make([]bench.Series, 0, len(d.Kinds))
	var total int64
	for i, k := range d.Kinds {
		series = append(series, bench.Series{
			Label: kindClass(k.Kind),
			X:     []float64{float64(i)},
			Y:     []float64{float64(k.Messages())},
		})
		total += k.Messages()
	}

	path := filepath.Join(outDir, "figcost.tsv")
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := bench.WriteTSV(out, series); err != nil {
		return err
	}

	fmt.Printf("== Live cost: per-kind message counts for %q -> %s ==\n", d.Node, path)
	fmt.Printf("   window %s .. %s, %d messages total\n",
		d.StartedAt.Format("15:04:05"), d.CapturedAt.Format("15:04:05"), total)
	for _, s := range series {
		fmt.Printf("   %-18s %10.0f msgs (%.1f%%)\n", s.Label, s.Y[0], 100*s.Y[0]/float64(total))
	}
	return nil
}

func printAblations(scale bench.Scale) {
	w := bench.DefaultWorkload(scale)

	fmt.Println("== Ablation: Delay discard time d (tv=10, t=1e6) ==")
	fmt.Println("   (the trade-off the paper describes but does not quantify)")
	for _, p := range bench.DSweep(w, 10, 1e6, bench.DefaultDSweep) {
		d := fmt.Sprintf("%gs", p.D)
		if p.D > 1e17 {
			d = "inf"
		}
		fmt.Printf("   d=%-8s msgs=%-9d avg-state=%-8.0fB reconnections=%d"+"\n",
			d, p.Messages, p.AvgStateBytes, p.Reconnects)
	}
	fmt.Println()

	fmt.Println("== Ablation: volume lease length tv (t=1e6) ==")
	fmt.Println("   (message overhead vs the min(t,tv) write-delay bound; Lease = tv->inf)")
	for _, p := range bench.TVSweep(w, 1e6, bench.DefaultTVSweep) {
		tv := fmt.Sprintf("%gs", p.TV)
		if p.TV > 1e17 {
			tv = "inf (Lease)"
		}
		fmt.Printf("   tv=%-12s msgs=%-9d volume-renewals=%d"+"\n", tv, p.Messages, p.VolumeRenewals)
	}
	fmt.Println()

	fmt.Println("== Ablation: volume grouping (the paper's future work) ==")
	fmt.Println("   (Volume(10,1e6) with each server fragmented into n hash volumes)")
	for _, p := range bench.GroupingSweep(w, 10, 1e6, bench.DefaultGroupingSweep) {
		fmt.Printf("   volumes/server=%-3d msgs=%-9d volume-renewals=%d"+"\n",
			p.VolumesPerServer, p.Messages, p.VolumeRenewals)
	}
	fmt.Println()

	fmt.Println("== Ablation: per-view spatial locality ==")
	fmt.Println("   (Volume(10,1e6) saving over Lease(10) as page views touch more objects)")
	for _, p := range bench.LocalitySweep(bench.DefaultLocalitySweep) {
		fmt.Printf("   objects/view=%-5.1f lease=%-9d volume=%-9d saving=%5.1f%%"+"\n",
			p.ObjectsPerView, p.LeaseMsgs, p.VolumeMsgs, p.Saving*100)
	}
	fmt.Println()
}

func printTable1() error {
	fmt.Println("== Table 1: per-object consistency costs (example parameters) ==")
	fmt.Println("   R=0.01/s (one read per 100s), Ro=0.1/s volume-wide, t=100000s, tv=100s,")
	fmt.Println("   Ctot=50 clients with copies, Co=20 valid object leases, Cv=5 valid volume leases")
	rows := bench.Table1(bench.ModelParams{
		R: 0.01, Ro: 0.1, T: 100000, TV: 100, Ctot: 50, Co: 20, Cv: 5,
	})
	if err := bench.WriteTable1(os.Stdout, rows); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

func printCallouts(scale bench.Scale) error {
	w := bench.DefaultWorkload(scale)
	fmt.Println("== Figure 5 callouts: best messages at a fixed write-delay bound ==")
	fmt.Println("   (paper: Volume -32%/-30%, Delay -39%/-40% at 10s/100s bounds)")
	for _, bound := range []float64{10, 100} {
		for _, c := range bench.Callouts(w, bound, bench.DefaultTimeouts) {
			fmt.Printf("   %-36s best=%-24s %8d vs %8d msgs  saving %5.1f%%\n",
				c.Name, c.Best, c.BestMsgs, c.BaselineMsgs, c.Saving*100)
		}
	}
	fmt.Println()
	return nil
}

func emitFigure(f int, scale bench.Scale, outDir string) error {
	var (
		series []bench.Series
		extra  *bench.Series
		desc   string
	)
	switch f {
	case 5:
		s, stale := bench.Fig5(bench.DefaultWorkload(scale), bench.DefaultTimeouts)
		series, extra = s, &stale
		desc = "messages vs object timeout"
	case 6:
		series = bench.FigState(bench.DefaultWorkload(scale), bench.DefaultTimeouts, 0)
		desc = "avg state (bytes) at most popular server vs timeout"
	case 7:
		series = bench.FigState(bench.DefaultWorkload(scale), bench.DefaultTimeouts, 9)
		desc = "avg state (bytes) at 10th most popular server vs timeout"
	case 8:
		series = bench.FigLoad(bench.DefaultWorkload(scale))
		desc = "cumulative 1s-period load histogram, default writes"
	case 9:
		series = bench.FigLoad(bench.BurstyWorkload(scale))
		desc = "cumulative 1s-period load histogram, bursty writes"
	default:
		return fmt.Errorf("unknown figure %d (have 5-9)", f)
	}

	path := filepath.Join(outDir, fmt.Sprintf("fig%d.tsv", f))
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := bench.WriteTSV(out, series); err != nil {
		return err
	}
	if extra != nil {
		if err := bench.WriteTSV(out, []bench.Series{*extra}); err != nil {
			return err
		}
	}

	fmt.Printf("== Figure %d: %s -> %s ==\n", f, desc, path)
	for _, s := range series {
		if len(s.Y) == 0 {
			continue
		}
		fmt.Printf("   %-22s", s.Label)
		for i := range s.Y {
			fmt.Printf(" %10.0f", s.Y[i])
		}
		fmt.Println()
	}
	if extra != nil && len(extra.Y) > 0 {
		fmt.Printf("   %-22s", extra.Label)
		for _, v := range extra.Y {
			fmt.Printf(" %10.4f", v)
		}
		fmt.Println()
	}
	fmt.Println()
	return nil
}
