package bench

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/sim/algo"
	"repro/internal/trace"
)

func TestSpecNamesAndParse(t *testing.T) {
	cases := []struct {
		spec Spec
		name string
	}{
		{PollEachRead(), "PollEachRead"},
		{Poll(100), "Poll(100)"},
		{Callback(), "Callback"},
		{Lease(10), "Lease(10)"},
		{Volume(10, 10000), "Volume(10,10000)"},
		{Delay(10, 10000), "Delay(10,10000,inf)"},
		{DelayD(10, 10000, 3600), "Delay(10,10000,3600)"},
	}
	for _, c := range cases {
		if got := c.spec.Name(); got != c.name {
			t.Errorf("Name = %q, want %q", got, c.name)
		}
		parsed, err := ParseSpec(c.name)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.name, err)
			continue
		}
		if parsed != c.spec {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.name, parsed, c.spec)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{"bogus", "poll", "poll(1,2)", "volume(1)", "lease(x)", "delay(1)", "poll(1", "volume(0,10)", "delay(10,100,0)", "delay(-1,100)"} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) succeeded", s)
		}
	}
}

func TestSpecFamily(t *testing.T) {
	if got := Volume(10, 0).Family(); got != "Volume(10,t)" {
		t.Errorf("Family = %q", got)
	}
	if got := Delay(100, 0).Family(); got != "Delay(100,t,inf)" {
		t.Errorf("Family = %q", got)
	}
	if got := Callback().Family(); got != "Callback" {
		t.Errorf("Family = %q", got)
	}
}

func TestSpecNewConstructsAllKinds(t *testing.T) {
	for _, s := range []Spec{PollEachRead(), Poll(1), Callback(), Lease(1), Volume(1, 2), Delay(1, 2)} {
		w := Workload{Trace: trace.Trace{}}
		rec, _ := Run(w, s)
		if rec == nil {
			t.Errorf("Run(%s) returned nil recorder", s.Name())
		}
	}
}

// staleReader serves every read stale: what a broken strong algorithm
// looks like to the recorder.
type staleReader struct{ env *sim.Env }

func (staleReader) Name() string                        { return "StaleReader" }
func (r staleReader) HandleRead(time.Time, trace.Event) { r.env.Rec.Read(true) }
func (staleReader) HandleWrite(time.Time, trace.Event)  {}

// TestSimulatePanicsOnStrongStaleRead: a figure run stops on a stale read
// from a strong algorithm, and lets Poll(t)'s through.
func TestSimulatePanicsOnStrongStaleRead(t *testing.T) {
	tr := trace.Trace{{Time: clock.At(0), Op: trace.OpRead, Client: "c", Server: "s", Object: "o", Size: 1}}
	mk := func(env *sim.Env) sim.Algorithm { return staleReader{env} }
	if _, _, err := simulate(tr, false, mk); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "StaleReader served 1 stale reads") {
			t.Errorf("recovered %v, want the stale-read panic", r)
		}
	}()
	simulate(tr, true, mk)
	t.Error("simulate returned from a strong run with a stale read")
}

func TestDefaultWorkloadMemoized(t *testing.T) {
	a := DefaultWorkload(ScaleSmall)
	b := DefaultWorkload(ScaleSmall)
	if len(a.Trace) == 0 || len(a.Trace) != len(b.Trace) {
		t.Fatalf("workload lens: %d vs %d", len(a.Trace), len(b.Trace))
	}
	st := trace.Summarize(a.Trace)
	if st.Reads == 0 || st.Writes == 0 {
		t.Fatalf("workload missing reads or writes: %+v", st)
	}
}

func TestBurstyWorkloadHasMoreWrites(t *testing.T) {
	def := trace.Summarize(DefaultWorkload(ScaleSmall).Trace)
	bur := trace.Summarize(BurstyWorkload(ScaleSmall).Trace)
	if bur.Writes <= def.Writes {
		t.Errorf("bursty writes = %d, default = %d; bursty must be larger", bur.Writes, def.Writes)
	}
	if bur.Reads != def.Reads {
		t.Errorf("bursty reads = %d, default = %d; reads must be unchanged", bur.Reads, def.Reads)
	}
}

// fig5Small computes Figure 5 on the small workload once for all shape
// tests.
var fig5Cache struct {
	series []Series
	stale  Series
	done   bool
}

func fig5Small(t *testing.T) ([]Series, Series) {
	t.Helper()
	if !fig5Cache.done {
		fig5Cache.series, fig5Cache.stale = Fig5(DefaultWorkload(ScaleSmall), DefaultTimeouts)
		fig5Cache.done = true
	}
	return fig5Cache.series, fig5Cache.stale
}

func seriesByLabel(t *testing.T, series []Series, label string) Series {
	t.Helper()
	for _, s := range series {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("no series %q in %v", label, labels(series))
	return Series{}
}

func labels(series []Series) []string {
	out := make([]string, len(series))
	for i, s := range series {
		out[i] = s.Label
	}
	return out
}

func TestFig5CallbackIsFlat(t *testing.T) {
	series, _ := fig5Small(t)
	cb := seriesByLabel(t, series, "Callback")
	for i := 1; i < len(cb.Y); i++ {
		if cb.Y[i] != cb.Y[0] {
			t.Fatalf("Callback not flat: %v", cb.Y)
		}
	}
}

func TestFig5VolumeOverheadOrdering(t *testing.T) {
	series, _ := fig5Small(t)
	lease := seriesByLabel(t, series, "Lease(t)")
	v10 := seriesByLabel(t, series, "Volume(10,t)")
	v100 := seriesByLabel(t, series, "Volume(100,t)")
	for i := range lease.X {
		if v10.Y[i] < lease.Y[i] {
			t.Errorf("t=%g: Volume(10,t)=%g below Lease=%g; volume overhead cannot be negative",
				lease.X[i], v10.Y[i], lease.Y[i])
		}
		if v100.Y[i] > v10.Y[i] {
			t.Errorf("t=%g: Volume(100,t)=%g above Volume(10,t)=%g; longer volume leases cost less",
				lease.X[i], v100.Y[i], v10.Y[i])
		}
	}
}

func TestFig5DelayBelowVolume(t *testing.T) {
	series, _ := fig5Small(t)
	v10 := seriesByLabel(t, series, "Volume(10,t)")
	d10 := seriesByLabel(t, series, "Delay(10,t,inf)")
	for i := range v10.X {
		if d10.Y[i] > v10.Y[i] {
			t.Errorf("t=%g: Delay=%g above Volume=%g; delayed invalidations never add messages",
				v10.X[i], d10.Y[i], v10.Y[i])
		}
	}
}

func TestFig5PollMonotoneAndStale(t *testing.T) {
	series, stale := fig5Small(t)
	poll := seriesByLabel(t, series, "Poll(t)")
	for i := 1; i < len(poll.Y); i++ {
		if poll.Y[i] > poll.Y[i-1] {
			t.Errorf("Poll messages increased from t=%g to t=%g (%g -> %g)",
				poll.X[i-1], poll.X[i], poll.Y[i-1], poll.Y[i])
		}
	}
	// Stale rate grows with the timeout and is substantial at t=1e7.
	if stale.Y[0] > 0.001 {
		t.Errorf("Poll(10) stale rate = %g, want ~0", stale.Y[0])
	}
	// Our small workload spans one week, so absolute stale rates sit well
	// below the paper's 4-month trace; the shape (monotone growth, nonzero
	// tail) is what must reproduce.
	last := stale.Y[len(stale.Y)-1]
	if last < 0.001 {
		t.Errorf("Poll(1e7) stale rate = %g, want clearly nonzero", last)
	}
	for i := 1; i < len(stale.Y); i++ {
		if stale.Y[i]+1e-9 < stale.Y[i-1] {
			t.Errorf("stale rate decreased from t=%g to t=%g", stale.X[i-1], stale.X[i])
		}
	}
}

func TestFig5LeaseDeclinesFromShortTimeouts(t *testing.T) {
	series, _ := fig5Small(t)
	lease := seriesByLabel(t, series, "Lease(t)")
	// The paper's Lease line declines until ~1e5 s; at minimum the t=10
	// point must cost more than the t=1e4 point.
	if lease.Y[0] <= lease.Y[3] {
		t.Errorf("Lease(10)=%g not above Lease(1e4)=%g", lease.Y[0], lease.Y[3])
	}
}

func TestCalloutsVolumeBeatsLeaseAtFixedBound(t *testing.T) {
	w := DefaultWorkload(ScaleSmall)
	for _, bound := range []float64{10, 100} {
		cs := Callouts(w, bound, DefaultTimeouts)
		if len(cs) != 2 {
			t.Fatalf("got %d callouts", len(cs))
		}
		vol, delay := cs[0], cs[1]
		if vol.Saving <= 0 {
			t.Errorf("bound %gs: Volume saves %.1f%%; must beat Lease(%g) (%d vs %d msgs)",
				bound, vol.Saving*100, bound, vol.BestMsgs, vol.BaselineMsgs)
		}
		if delay.Saving < vol.Saving-0.02 {
			t.Errorf("bound %gs: Delay saving %.1f%% below Volume saving %.1f%%",
				bound, delay.Saving*100, vol.Saving*100)
		}
		// The paper reports 30-40% savings; accept a broad band for the
		// synthetic workload but demand double digits.
		if vol.Saving < 0.10 || vol.Saving > 0.95 {
			t.Errorf("bound %gs: Volume saving %.1f%% outside plausible band", bound, vol.Saving*100)
		}
	}
}

func TestFigStateShapes(t *testing.T) {
	w := DefaultWorkload(ScaleSmall)
	series := FigState(w, []float64{10, 1e3, 1e5, 1e7}, 0)
	cb := seriesByLabel(t, series, "Callback")
	lease := seriesByLabel(t, series, "Lease(t)")
	// Callback state is flat-ish and must dominate the lease algorithms at
	// short timeouts (leases discard idle clients, callbacks never do).
	if cb.Y[0] <= lease.Y[0] {
		t.Errorf("short-timeout state: Callback=%g <= Lease=%g", cb.Y[0], lease.Y[0])
	}
	// Lease state grows with the timeout.
	if lease.Y[len(lease.Y)-1] <= lease.Y[0] {
		t.Errorf("Lease state did not grow with t: %v", lease.Y)
	}
	// Volume leases add only modest state over plain leases (short volume
	// leases expire quickly): within 2x at the long-timeout end.
	vol := seriesByLabel(t, series, "Volume(10,t)")
	last := len(vol.Y) - 1
	if vol.Y[last] > 2*lease.Y[last]+64 {
		t.Errorf("Volume state %g far above Lease state %g", vol.Y[last], lease.Y[last])
	}
}

func TestFigStateDelayShortDUsesLeastState(t *testing.T) {
	// The paper: a short discard time d lets Delay use less state than the
	// other lease algorithms (pending lists and idle leases are dropped).
	w := DefaultWorkload(ScaleSmall)
	t7 := []float64{1e7}
	long := FigState(w, t7, 0)
	delayInf := seriesByLabel(t, long, "Delay(10,t,inf)")

	recShort, resShort := Run(w, DelayD(10, 1e7, 3600))
	target := nthServer(w, 0)
	ssShort, ok := recShort.Server(target)
	if !ok {
		t.Fatal("target server unseen")
	}
	shortAvg := ssShort.State.Average(resShort.End)
	if shortAvg > delayInf.Y[0] {
		t.Errorf("Delay(d=3600) avg state %g above Delay(d=inf) %g; short d must store less",
			shortAvg, delayInf.Y[0])
	}
}

func TestFigLoadShapes(t *testing.T) {
	w := DefaultWorkload(ScaleSmall)
	series := FigLoad(w)
	if len(series) != len(Fig8Specs()) {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.X) == 0 {
			t.Errorf("series %s empty", s.Label)
			continue
		}
		// Cumulative histograms decrease in y as x grows.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1] {
				t.Errorf("%s: cumulative count increased at x=%g", s.Label, s.X[i])
			}
		}
	}
}

func TestBurstyWritesRaiseInvalidationPeaks(t *testing.T) {
	def := DefaultWorkload(ScaleSmall)
	bur := BurstyWorkload(ScaleSmall)
	cbDef := PeakLoad(def, Callback())
	cbBur := PeakLoad(bur, Callback())
	if cbBur < cbDef {
		t.Errorf("Callback peak under bursty writes (%d) below default (%d)", cbBur, cbDef)
	}
	// Delay's peak under bursty writes stays at or below Volume's: deferred
	// invalidations absorb write bursts.
	volBur := PeakLoad(bur, Volume(10, 1e5))
	delayBur := PeakLoad(bur, Delay(10, 1e5))
	if delayBur > volBur {
		t.Errorf("bursty peaks: Delay=%d above Volume=%d", delayBur, volBur)
	}
}

func TestWriteTSV(t *testing.T) {
	var sb strings.Builder
	err := WriteTSV(&sb, []Series{{Label: "L", X: []float64{1, 2}, Y: []float64{3, 4}}})
	if err != nil {
		t.Fatal(err)
	}
	want := "L\t1\t3\nL\t2\t4\n"
	if sb.String() != want {
		t.Errorf("TSV = %q, want %q", sb.String(), want)
	}
}

func TestForeverSpecUsesAlgoForever(t *testing.T) {
	if Delay(1, 2).D != algo.Forever {
		t.Error("Delay spec must use algo.Forever for d=inf")
	}
}
