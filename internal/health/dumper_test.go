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

// simDumper builds a dumper on its own simulated clock.
func simDumper(t *testing.T, dir string) (*Dumper, *clock.Simulated, *FlightRecorder) {
	t.Helper()
	sim := clock.NewSimulated(clock.Epoch)
	f := NewFlightRecorder("srv", 1024, 30*time.Second)
	d := NewDumper(Options{Node: "srv", Clock: sim, Flight: f, DumpDir: dir, Logf: t.Logf})
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
	if files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(files) != 1 || files[0] != path {
		t.Fatalf("dumps on disk = %v, want [%s]", files, path)
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
	if files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(files) != 2 {
		t.Errorf("after freeze: %v on disk, want two", files)
	}
}

func TestRegisterExportsHealthSeries(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewDumper(Options{Node: "srv", Clock: clock.NewSimulated(clock.Epoch),
		Flight: NewFlightRecorder("srv", 16, time.Minute), DumpDir: t.TempDir()})
	e.Register(reg)
	if _, err := e.ForceDump("x"); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `lease_health_dumps_written_total{node="srv"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("/metrics missing %q\n%s", want, sb.String())
	}
}

func TestNilDumperSafe(t *testing.T) {
	var e *Dumper
	e.Register(obs.NewRegistry())
	if _, err := e.ForceDump("x"); err == nil {
		t.Error("nil ForceDump succeeded")
	}
}
