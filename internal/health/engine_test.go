package health

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// tickEngine builds an engine on a simulated clock whose ticks the test
// drives directly through tickOnce, keeping trigger timing deterministic.
func tickEngine(t *testing.T, dir string, detectors ...Detector) (*Engine, *clock.Simulated, *FlightRecorder) {
	t.Helper()
	sim := clock.NewSimulated(clock.Epoch)
	f := NewFlightRecorder("srv", 1024, 30*time.Second)
	e := NewEngine(Options{
		Node:     "srv",
		Clock:    sim,
		Flight:   f,
		DumpDir:  dir,
		Tail:     2 * time.Second,
		Cooldown: 10 * time.Second,
		Logf:     t.Logf,
	}, detectors...)
	t.Cleanup(e.Close)
	return e, sim, f
}

func TestEngineTriggerWritesDumpWithPreContext(t *testing.T) {
	dir := t.TempDir()
	e, sim, f := tickEngine(t, dir,
		NewRateDetector(DetUnreachable, 30, 2, func(ev obs.Event) bool { return ev.Type == obs.EvUnreachable }))

	// 5 seconds of background traffic: the pre-trigger context.
	for i := 0; i < 5; i++ {
		at := sim.Now()
		f.Observe(evAt(at, obs.EvCacheRead))
		e.Observe(evAt(at, obs.EvCacheRead))
		sim.Advance(time.Second)
		e.tickOnce(sim.Now())
	}
	// The anomaly: two unreachable transitions.
	for i := 0; i < 2; i++ {
		ev := evAt(sim.Now(), obs.EvUnreachable)
		f.Observe(ev)
		e.Observe(ev)
	}
	e.tickOnce(sim.Now())
	triggerAt := sim.Now()

	rep := e.Snapshot()
	if rep.Status != "firing" {
		t.Fatalf("status = %q, want firing", rep.Status)
	}

	// No dump yet: the tail has not elapsed. The dump goroutine waits on
	// the simulated clock; advance past the tail and give it a moment.
	sim.Advance(3 * time.Second)
	waitFor(t, func() bool { return countDumps(t, dir) == 1 })

	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	d, err := ReadDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger == nil || d.Trigger.Detector != DetUnreachable {
		t.Fatalf("dump trigger = %+v", d.Trigger)
	}
	if d.Trigger.Observed < 2 || d.Trigger.Threshold != 2 {
		t.Fatalf("trigger evidence = %+v", d.Trigger)
	}
	if !d.Trigger.At.Equal(triggerAt) {
		t.Errorf("trigger at %v, want %v", d.Trigger.At, triggerAt)
	}
	if span := d.PreTriggerSpan(); span < 2*time.Second {
		t.Errorf("pre-trigger context %v, want >= 2s", span)
	}
	// The dump holds the anomaly events too.
	var unreachable int
	for _, ev := range d.Events {
		if ev.Type == "unreachable" {
			unreachable++
		}
	}
	if unreachable != 2 {
		t.Errorf("dump holds %d unreachable events, want 2", unreachable)
	}
}

func TestEngineCooldownSuppressesRepeatDumps(t *testing.T) {
	dir := t.TempDir()
	e, sim, f := tickEngine(t, dir,
		NewRateDetector(DetEpochBump, 30, 1, func(ev obs.Event) bool { return ev.Type == obs.EvEpochBump }))

	ev := evAt(sim.Now(), obs.EvEpochBump)
	f.Observe(ev)
	e.Observe(ev)
	// Many ticks inside the cooldown: one accepted trigger.
	for i := 0; i < 5; i++ {
		e.tickOnce(sim.Now())
		sim.Advance(time.Second)
	}
	sim.Advance(5 * time.Second)
	waitFor(t, func() bool { return countDumps(t, dir) == 1 })

	rep := e.Snapshot()
	var st DetectorStatus
	for _, d := range rep.Detectors {
		if d.Name == DetEpochBump {
			st = d
		}
	}
	if st.Triggers != 1 {
		t.Errorf("triggers = %d, want 1 (cooldown)", st.Triggers)
	}

	// Past the cooldown with the rule still firing, it may trigger again.
	ev2 := evAt(sim.Now(), obs.EvEpochBump)
	f.Observe(ev2)
	e.Observe(ev2)
	sim.Advance(20 * time.Second)
	e.tickOnce(sim.Now())
	sim.Advance(3 * time.Second)
	waitFor(t, func() bool { return countDumps(t, dir) == 2 })
}

func TestEngineRegisterExportsHealthSeries(t *testing.T) {
	reg := obs.NewRegistry()
	e, sim, f := tickEngine(t, t.TempDir(),
		NewRateDetector(DetEpochBump, 30, 1, func(ev obs.Event) bool { return ev.Type == obs.EvEpochBump }))
	e.opts.StalenessBurn = func() float64 { return 0.25 }
	e.Register(reg)

	ev := evAt(sim.Now(), obs.EvEpochBump)
	f.Observe(ev)
	e.Observe(ev)
	e.tickOnce(sim.Now())
	sim.Advance(3 * time.Second)
	waitFor(t, func() bool { return e.Snapshot().DumpsWritten == 1 })

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prom := sb.String()
	for _, want := range []string{
		`lease_health_detector_status{node="srv",detector="epoch-bump"} 1`,
		`lease_health_detector_triggers_total{node="srv",detector="epoch-bump"} 1`,
		`lease_health_dumps_written_total{node="srv"} 1`,
		`lease_health_staleness_budget_burn{node="srv"} 0.25`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q\n%s", want, prom)
		}
	}
}

func TestEngineLoopOnRealClock(t *testing.T) {
	// The loop itself (Start/Close, tick scheduling, shutdown) on a fast
	// real-clock cadence; determinism of the rules is covered above.
	f := NewFlightRecorder("srv", 64, time.Minute)
	e := NewEngine(Options{
		Node: "srv", Flight: f, DumpDir: t.TempDir(),
		Tick: 5 * time.Millisecond, Tail: 5 * time.Millisecond, Cooldown: time.Hour,
	}, NewThresholdDetector("always", 1, func() float64 { return 2 }))
	e.Start()
	e.Start() // idempotent
	waitFor(t, func() bool { return e.Snapshot().DumpsWritten >= 1 })
	e.Close()
	e.Close() // idempotent
}

func TestForceDumpAndHandlers(t *testing.T) {
	dir := t.TempDir()
	e, sim, f := tickEngine(t, dir)
	f.Observe(evAt(sim.Now(), obs.EvConnect))

	path, err := e.ForceDump("test freeze")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}

	// /debug/health
	w := httptest.NewRecorder()
	Handler(e)(w, httptest.NewRequest("GET", "/debug/health", nil))
	var rep Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatalf("health JSON: %v", err)
	}
	if rep.Node != "srv" || rep.DumpsWritten != 1 {
		t.Fatalf("report = %+v", rep)
	}

	// /debug/flightrecorder live snapshot
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder", nil))
	var live Dump
	if err := json.Unmarshal(w.Body.Bytes(), &live); err != nil {
		t.Fatalf("flight JSON: %v", err)
	}
	if len(live.Events) != 1 {
		t.Fatalf("live dump events = %d, want 1", len(live.Events))
	}

	// ?list=1
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder?list=1", nil))
	var infos []DumpInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("listed %d dumps, want 1", len(infos))
	}

	// ?file= round trip
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder?file="+infos[0].Name, nil))
	if _, err := ParseDump(w.Body); err != nil {
		t.Fatalf("served dump unparseable: %v", err)
	}

	// Path traversal refused.
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder?file=../../etc/passwd", nil))
	if w.Code != 400 {
		t.Errorf("traversal served with %d", w.Code)
	}

	// POST ?freeze=1 writes a second dump; GET is refused.
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder?freeze=1", nil))
	if w.Code != 405 {
		t.Errorf("GET freeze = %d, want 405", w.Code)
	}
	sim.Advance(time.Second) // distinct file timestamp
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("POST", "/debug/flightrecorder?freeze=1", nil))
	if w.Code != 200 {
		t.Fatalf("POST freeze = %d: %s", w.Code, w.Body)
	}
	if n := countDumps(t, dir); n != 2 {
		t.Errorf("dumps after freeze = %d, want 2", n)
	}
}

func TestNilEngineSafe(t *testing.T) {
	var e *Engine
	e.Observe(obs.Event{})
	e.Start()
	e.Close()
	if e.Node() != "" || e.Flight() != nil {
		t.Error("nil engine leaked state")
	}
	if rep := e.Snapshot(); rep.Status != "ok" {
		t.Errorf("nil report = %+v", rep)
	}
	e.Register(obs.NewRegistry())
	if _, err := e.ForceDump("x"); err == nil {
		t.Error("nil ForceDump succeeded")
	}
}

func countDumps(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// waitFor polls cond for up to 2 (real) seconds — the dump writer runs on
// its own goroutine even under the simulated clock.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
