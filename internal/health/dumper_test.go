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

// simDumper builds a dumper on its own simulated clock, so the clock's only
// timer is the trigger's tail.
func simDumper(t *testing.T, dir string) (*Dumper, *clock.Simulated, *FlightRecorder) {
	t.Helper()
	sim := clock.NewSimulated(clock.Epoch)
	f := NewFlightRecorder("srv", 1024, 30*time.Second)
	d := NewDumper(Options{Node: "srv", Clock: sim, Flight: f, DumpDir: dir, Logf: t.Logf})
	t.Cleanup(d.Close)
	return d, sim, f
}

func TestForceDumpAndHandlers(t *testing.T) {
	dir := t.TempDir()
	e, sim, f := simDumper(t, dir)
	f.Observe(evAt(sim.Now(), obs.EvConnect))

	path, err := e.ForceDump("test freeze")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if files := e.Files(); len(files) != 1 || files[0] != path {
		t.Fatalf("ledger = %v, want [%s]", files, path)
	}

	// /debug/flightrecorder live snapshot
	w := httptest.NewRecorder()
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

	// POST ?freeze=1 writes a second dump — at the same simulated instant,
	// beside the first; GET is refused.
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("GET", "/debug/flightrecorder?freeze=1", nil))
	if w.Code != 405 {
		t.Errorf("GET freeze = %d, want 405", w.Code)
	}
	w = httptest.NewRecorder()
	FlightHandler(e)(w, httptest.NewRequest("POST", "/debug/flightrecorder?freeze=1", nil))
	if w.Code != 200 {
		t.Fatalf("POST freeze = %d: %s", w.Code, w.Body)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(files) != 2 || len(e.Files()) != 2 {
		t.Errorf("after freeze: %v on disk, ledger %v; want two of each", files, e.Files())
	}
}

// TestTriggerTailAndCooldown: a trigger freezes one dump Tail later, holding
// what happened in the tail; another inside the Cooldown arms nothing; one
// past it arms a freeze that Close writes at once.
func TestTriggerTailAndCooldown(t *testing.T) {
	e, sim, f := simDumper(t, t.TempDir())
	f.Observe(evAt(sim.Now(), obs.EvConnect))
	at := sim.Now()
	e.Trigger(CauseAudit, "first")
	if d, ok := sim.NextDeadline(); !ok || !d.Equal(at.Add(Tail)) {
		t.Fatalf("tail timer = %v, %v; want one at %v", d, ok, at.Add(Tail))
	}
	sim.Advance(Tail / 2)
	f.Observe(evAt(sim.Now(), obs.EvDisconnect)) // the aftermath
	sim.Advance(Tail / 2)
	files := settle(t, e, 1)

	d, err := ReadDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger == nil || d.Trigger.Cause != CauseAudit || !d.Trigger.At.Equal(at) || len(d.Events) != 2 {
		t.Fatalf("dump trigger %+v with %d events, want %s at %v with 2", d.Trigger, len(d.Events), CauseAudit, at)
	}
	if !strings.Contains(filepath.Base(files[0]), "-"+CauseAudit+"-") {
		t.Errorf("dump name %s does not name its cause", files[0])
	}

	sim.Advance(Cooldown - Tail - time.Nanosecond)
	e.Trigger(CauseAudit, "inside the cooldown")
	if d, ok := sim.NextDeadline(); ok {
		t.Fatalf("a trigger inside the cooldown armed a freeze at %v", d)
	}
	sim.Advance(time.Nanosecond)
	e.Trigger(CauseAudit, "past the cooldown")
	if _, ok := sim.NextDeadline(); !ok {
		t.Fatal("a trigger past the cooldown armed nothing")
	}
	e.Close()
	if got := e.Files(); len(got) != 2 {
		t.Fatalf("after Close the ledger holds %v, want the armed freeze written too", got)
	}
	e.Trigger(CauseAudit, "after Close")
	e.Close()
	if got := e.Files(); len(got) != 2 {
		t.Fatalf("a closed dumper froze again: %v", got)
	}
}

func TestRegisterExportsHealthSeries(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewDumper(Options{Node: "srv", Clock: clock.NewSimulated(clock.Epoch),
		Flight: NewFlightRecorder("srv", 16, time.Minute), DumpDir: t.TempDir(),
		StalenessBurn: func() float64 { return 0.25 }})
	e.Register(reg)
	if _, err := e.ForceDump("x"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lease_health_dumps_written_total{node="srv"} 1`,
		`lease_health_staleness_budget_burn{node="srv"} 0.25`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics missing %q\n%s", want, sb.String())
		}
	}
}

func TestNilDumperSafe(t *testing.T) {
	var e *Dumper
	e.Trigger(CauseAudit, "x")
	e.Close()
	e.Register(obs.NewRegistry())
	if e.Files() != nil {
		t.Error("nil dumper leaked state")
	}
	if _, err := e.ForceDump("x"); err == nil {
		t.Error("nil ForceDump succeeded")
	}
}

// settle waits (in real time: the freeze runs on its own goroutine) until
// the ledger holds n dumps, and returns it.
func settle(t *testing.T, e *Dumper, n int) []string {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if files := e.Files(); len(files) >= n {
			return files
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger holds %v, want %d dumps", e.Files(), n)
		}
	}
}
