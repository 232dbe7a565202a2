package bench

import (
	"fmt"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// simPin is one simulator run's headline numbers, recorded from the
// hand-written Volume and Delay algorithms that the core-backed adapter
// replaced: every message class's count, the total bytes, the reads, the
// time-weighted state at the most-read server as an exact float64, and the
// cumulative load histogram at the most loaded server. The peak state is
// left out: the hand-written Delay counted a transient record inside one
// instant (DESIGN.md §4).
type simPin struct {
	workload, spec string
	byClass        string // metrics.Counter.ByClass, index = metrics.MsgClass
	bytes          int64
	reads, stale   int64
	state          float64 // time-weighted mean at the most-read server
	loads, periods string  // cumulative load histogram at the most loaded server
}

var simPins = []simPin{
	{workload: "small", spec: "Volume(10,1e5)", byClass: "[0 0 7562 2536 4269 4269 109 109 0 0 0 5026]", bytes: 81919768, reads: 20237, state: 5759.612762870297,
		loads: "[2 4 6 8 10 12]", periods: "[2777 1113 274 34 4 1]"},
	{workload: "small", spec: "VolumeGrouped(10,1e5,4)", byClass: "[0 0 7562 2536 11086 11086 109 109 0 0 0 5026]", bytes: 82465128, reads: 20237, state: 5760.222274005777,
		loads: "[2 4 6 8 10 12 14 16]", periods: "[3380 2034 933 378 121 31 6 2]"},
	{workload: "small", spec: "Delay(10,1e5,inf)", byClass: "[0 0 7562 2536 4269 4206 1 64 0 0 63 5026]", bytes: 81914752, reads: 20237, state: 5776.841658889814,
		loads: "[2 3 4 5 6 7 8 9 10 12]", periods: "[2764 1111 1106 283 273 36 34 7 4 1]"},
	{workload: "small", spec: "Delay(10,1e6,60)", byClass: "[0 0 5026 0 4269 4269 1 1225 1224 1224 1224 5026]", bytes: 83681912, reads: 20237, state: 241.99331965804313,
		loads: "[2 4 6 8 10 12]", periods: "[2313 997 628 172 28 3]"},
	{workload: "small-bursty", spec: "Volume(10,1e5)", byClass: "[0 0 7786 1532 4269 4269 1655 1655 0 0 0 6254]", bytes: 100284472, reads: 20237, state: 5285.448378516997,
		loads:   "[2 4 6 8 10 16 22 26 28 34 36 38 40 42 48 54 62 72 88 90 102 114 164]",
		periods: "[2865 1187 299 65 25 21 19 18 17 16 15 14 13 11 10 9 8 7 6 4 3 2 1]"},
	{workload: "small-bursty", spec: "VolumeGrouped(10,1e5,4)", byClass: "[0 0 7786 1532 11086 11086 1655 1655 0 0 0 6254]", bytes: 100829832, reads: 20237, state: 5286.057889652444,
		loads:   "[2 4 6 8 10 12 14 16 22 26 28 34 36 38 40 42 48 54 62 72 88 90 102 114 164]",
		periods: "[3428 2101 988 419 145 56 27 22 19 18 17 16 15 14 13 11 10 9 8 7 6 4 3 2 1]"},
	{workload: "small-bursty", spec: "Delay(10,1e5,inf)", byClass: "[0 0 7786 1532 4269 3958 6 317 0 0 311 6254]", bytes: 100184928, reads: 20237, state: 5612.418981584485,
		loads: "[2 3 4 5 6 7 8 9 10 11]", periods: "[2839 1210 1162 345 277 71 43 14 4 1]"},
	{workload: "small-bursty", spec: "Delay(10,1e6,60)", byClass: "[0 0 6254 0 4269 4268 6 1231 1224 1224 1225 6254]", bytes: 101616480, reads: 20237, state: 229.367591426475,
		loads: "[2 4 5 6 8 10 12]", periods: "[2551 1189 673 672 250 47 9]"},
}

// runPinned runs one pinned configuration over the small workloads.
func runPinned(t *testing.T, p simPin) (*metrics.Recorder, sim.Result, Workload) {
	t.Helper()
	w := DefaultWorkload(ScaleSmall)
	if p.workload == "small-bursty" {
		w = BurstyWorkload(ScaleSmall)
	}
	switch p.spec {
	case "Volume(10,1e5)":
		rec, res := Run(w, Volume(10, 1e5))
		return rec, res, w
	case "VolumeGrouped(10,1e5,4)":
		rec, res, err := simRunGrouped(w, 10, 1e5, 4)
		if err != nil {
			t.Fatal(err)
		}
		return rec, res, w
	case "Delay(10,1e5,inf)":
		rec, res := Run(w, Delay(10, 1e5))
		return rec, res, w
	case "Delay(10,1e6,60)":
		rec, res := Run(w, DelayD(10, 1e6, 60))
		return rec, res, w
	}
	t.Fatalf("unknown pinned spec %q", p.spec)
	return nil, sim.Result{}, w
}

// TestSimulatorNumbersPinned is the quick tier-1 stand-in for `make
// figures-check`: Volume and Delay on the small workloads must reproduce,
// exactly, the numbers the hand-written algorithms produced before they were
// replaced by the adapter over core.Table and core.Holder.
func TestSimulatorNumbersPinned(t *testing.T) {
	for _, p := range simPins {
		p := p
		t.Run(p.workload+"/"+p.spec, func(t *testing.T) {
			rec, res, w := runPinned(t, p)
			tot := rec.Totals()
			if got := fmt.Sprint(tot.ByClass); got != p.byClass {
				t.Errorf("messages by class = %s, want %s", got, p.byClass)
			}
			if tot.Bytes != p.bytes {
				t.Errorf("bytes = %d, want %d", tot.Bytes, p.bytes)
			}
			if reads, stale := rec.ReadStats(); reads != p.reads || stale != p.stale {
				t.Errorf("reads, stale = %d, %d, want %d, %d", reads, stale, p.reads, p.stale)
			}
			ss, ok := rec.Server(nthServer(w, 0))
			if !ok {
				t.Fatal("no stats for the most-read server")
			}
			if got := ss.State.Average(res.End); got != p.state {
				t.Errorf("time-weighted state at the most-read server = %v, want %v", got, p.state)
			}
			busy, _ := rec.Server(rec.Servers()[0])
			loads, periods := busy.Load.Cumulative()
			if got := fmt.Sprint(loads); got != p.loads {
				t.Errorf("load histogram x = %s, want %s", got, p.loads)
			}
			if got := fmt.Sprint(periods); got != p.periods {
				t.Errorf("load histogram periods = %s, want %s", got, p.periods)
			}
		})
	}
}
