// Package health is the black box of the live lease stack: a flight
// recorder continuously retaining the last seconds of protocol events
// (causal write records included), frozen into a dump file — with the
// node's per-second load and its lease table — when an operator asks
// (ForceDump, POST /debug/flightrecorder?freeze=1, leasemon -freeze) or a
// failing test leaves its evidence behind (FailureDump).
//
// The paper's hardest moments — renewal storms after a server crash,
// unreachable-client wait-outs, invalidation backlog on a hot volume — are
// exactly the moments where scraped metrics are too coarse and the full
// event stream too big to keep. The flight recorder solves this the way an
// aircraft recorder does: it always retains a bounded trailing window, and
// a freeze writes the window into a timestamped dump file. Alerting on the
// scraped metrics is the scraper's job (cmd/leasemon's rule table).
//
// Like the rest of the observability layer, everything is pay-for-what-you-
// use: a nil *FlightRecorder is a valid, disabled recorder whose Observe is
// a single nil check and zero allocations (see BenchmarkFlightDisabled),
// so harnesses can hold one unconditionally.
package health

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/state"
)

// Trigger says why a flight recording was frozen and when. It is embedded
// verbatim in the dump file so a postmortem starts from the cause, not from
// raw data.
type Trigger struct {
	// Cause is "manual" (ForceDump) or "test-failure" (FailureDump); it
	// names the dump file too.
	Cause string    `json:"cause"`
	At    time.Time `json:"at"`
	// Detail is a human-readable one-liner (the reason, the test name),
	// for log lines and the leasemon dump view.
	Detail string `json:"detail,omitempty"`
}

// String renders the trigger for logs.
func (t Trigger) String() string {
	if t.Detail == "" {
		return t.Cause
	}
	return t.Cause + ": " + t.Detail
}

// FlightRecorder continuously retains the most recent protocol events in an
// obs.Ring (one allocation plus two atomic ops per recorded event, no mutex
// on the record path), plus references to the cost accounting and
// lease-state source that are snapshotted at freeze time.
//
// A nil *FlightRecorder is a valid, disabled recorder: Observe is a nil
// check and the event never escapes, which is the zero-allocation fast
// path BenchmarkFlightDisabled gates.
type FlightRecorder struct {
	node   string
	window time.Duration
	events *obs.Ring[obs.Event]

	// Attached sources, set before traffic starts; all optional.
	cost  *cost.Accounting
	state *state.Source
}

var _ obs.Sink = (*FlightRecorder)(nil)

// NewFlightRecorder returns a recorder for node retaining up to size events
// (min 1) and aiming to cover the trailing window (used to bound what a
// freeze includes; size must be provisioned for the expected event rate ×
// window). A zero window defaults to 60s.
func NewFlightRecorder(node string, size int, window time.Duration) *FlightRecorder {
	if window <= 0 {
		window = 60 * time.Second
	}
	return &FlightRecorder{node: node, window: window, events: obs.NewRing[obs.Event](size)}
}

// AttachCost arranges for freezes to include the cost accounting's
// per-second load. Call before traffic starts.
func (f *FlightRecorder) AttachCost(a *cost.Accounting) {
	if f == nil {
		return
	}
	f.cost = a
}

// AttachState arranges for freezes to include a point-in-time lease-state
// snapshot (internal/state), so a post-mortem carries the table itself —
// who held what until when — not just the event tail. Call before traffic
// starts.
func (f *FlightRecorder) AttachState(src *state.Source) {
	if f == nil {
		return
	}
	f.state = src
}

// Observe implements obs.Sink, retaining the event in the ring. Safe on a
// nil recorder and from any number of goroutines. The nil check lives in
// this inlinable wrapper so the disabled path never reaches Add, whose
// parameter escapes into the ring — keeping disabled call sites
// allocation-free.
func (f *FlightRecorder) Observe(e obs.Event) {
	if f == nil {
		return
	}
	f.events.Add(e)
}

// Total reports how many events were ever recorded (including overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.events.Total()
}

// Events returns the retained events with At in [now-window, now], oldest
// first.
func (f *FlightRecorder) Events(now time.Time) []obs.Event {
	if f == nil {
		return nil
	}
	cutoff := now.Add(-f.window)
	var out []obs.Event
	for _, e := range f.events.Snapshot() {
		if !e.At.Before(cutoff) {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// Snapshot freezes the recorder into a Dump: the trailing event window, the
// attached accounting's per-second load and the attached lease state. tr
// (optional) says why.
func (f *FlightRecorder) Snapshot(now time.Time, tr *Trigger) Dump {
	d := Dump{WrittenAt: now}
	if f == nil {
		return d
	}
	d.Node = f.node
	d.WindowSeconds = int(f.window / time.Second)
	d.Trigger = tr
	for _, e := range f.Events(now) {
		d.Events = append(d.Events, e.JSON())
	}
	d.Seconds = f.cost.Seconds()
	if f.state != nil {
		ls := f.state.Snapshot()
		d.LeaseState = &ls
	}
	return d
}

// Dump is a frozen flight recording — the file format written on a freeze and
// served at /debug/flightrecorder. Everything is plain JSON so
// leasemon, tests, and humans parse it the same way. Dumps written before
// spans became events carry a "spans" array as well; it is ignored.
type Dump struct {
	Node          string          `json:"node"`
	WrittenAt     time.Time       `json:"written_at"`
	WindowSeconds int             `json:"window_seconds"`
	Trigger       *Trigger        `json:"trigger,omitempty"`
	Events        []obs.EventJSON `json:"events"`
	Seconds       []cost.Second   `json:"seconds,omitempty"`
	// LeaseState is the node's frozen lease-table snapshot (who held what
	// until when at freeze time), attached via AttachState.
	LeaseState *state.Dump `json:"lease_state,omitempty"`
}

// PreTriggerSpan reports how much event history before the trigger the dump
// retains (0 when there is no trigger or no earlier event) — the quantity
// the chaos test asserts on.
func (d Dump) PreTriggerSpan() time.Duration {
	if d.Trigger == nil || len(d.Events) == 0 {
		return 0
	}
	first := d.Events[0].At
	if !first.Before(d.Trigger.At) {
		return 0
	}
	return d.Trigger.At.Sub(first)
}

// FileName builds the dump's file name: flight-<node>-<cause>-<unixms>.json.
// WriteDump appends -1, -2, … when a dump of that name already exists.
func (d Dump) FileName() string {
	cause := "manual"
	if d.Trigger != nil {
		cause = d.Trigger.Cause
	}
	node := d.Node
	if node == "" {
		node = "node"
	}
	return fmt.Sprintf("flight-%s-%s-%d.json", sanitize(node), sanitize(cause), d.WrittenAt.UnixMilli())
}

// sanitize keeps file names portable: anything outside [a-zA-Z0-9._-]
// becomes '_'.
func sanitize(s string) string {
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '.', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// WriteDump writes d under dir (created if needed) and returns the file
// path. It never replaces a dump already on disk: two freezes in the same
// millisecond land as flight-….json and flight-…-1.json.
func WriteDump(dir string, d Dump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("health: dump dir: %w", err)
	}
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("health: encode dump: %w", err)
	}
	// Written beside its final name and linked into place, so a dump file
	// that exists is complete — whoever watches the directory never reads a
	// half-written one — and, unlike a rename, the link fails rather than
	// replace a dump that holds the name already.
	tmp, err := os.CreateTemp(dir, ".flight-*.tmp")
	if err != nil {
		return "", fmt.Errorf("health: write dump: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err = tmp.Chmod(0o644); err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("health: write dump: %w", err)
	}
	base := strings.TrimSuffix(d.FileName(), ".json")
	for n := 0; ; n++ {
		path := filepath.Join(dir, base+".json")
		if n > 0 {
			path = filepath.Join(dir, fmt.Sprintf("%s-%d.json", base, n))
		}
		err := os.Link(tmp.Name(), path)
		if err == nil {
			return path, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return "", fmt.Errorf("health: write dump: %w", err)
		}
	}
}

// ReadDump parses a dump file.
func ReadDump(path string) (Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return Dump{}, err
	}
	defer f.Close()
	return ParseDump(f)
}

// ParseDump decodes a dump from r.
func ParseDump(r io.Reader) (Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return Dump{}, fmt.Errorf("health: parse dump: %w", err)
	}
	return d, nil
}

// DumpDir resolves where a test harness should write flight dumps:
// $FLIGHT_DUMP_DIR when set (CI exports it so failed chaos runs upload
// their dumps as artifacts), otherwise fallback.
func DumpDir(fallback string) string {
	if d := os.Getenv("FLIGHT_DUMP_DIR"); d != "" {
		return d
	}
	return fallback
}

// FailureDump freezes f into DumpDir(fallbackDir) under a synthetic
// "test-failure" trigger naming the failed test. Chaos and integration
// harnesses call it from a t.Cleanup guarded by t.Failed(), so a failing
// run leaves its black box behind and CI uploads $FLIGHT_DUMP_DIR as an
// artifact. now is passed in (rather than read here) so callers on
// simulated time freeze the right window.
func FailureDump(f *FlightRecorder, now time.Time, testName, fallbackDir string) (string, error) {
	tr := &Trigger{Cause: "test-failure", At: now, Detail: testName}
	return WriteDump(DumpDir(fallbackDir), f.Snapshot(now, tr))
}
