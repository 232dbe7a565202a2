// Package health is the black-box diagnostic layer of the live lease
// stack: a flight recorder continuously retaining the last seconds of
// protocol events, causal spans, and per-second metric snapshots; an
// anomaly detector engine evaluating rules on the live event stream
// (ack-wait spikes, renewal storms, invalidation backlog, unreachable-set
// growth, audit violations, epoch bumps); and a health surface summarizing
// detector state at /debug/health and lease_health_* gauges.
//
// The paper's hardest moments — renewal storms after a server crash,
// unreachable-client wait-outs, invalidation backlog on a hot volume — are
// exactly the moments where scraped metrics are too coarse and the full
// event stream too big to keep. The flight recorder solves this the way an
// aircraft recorder does: it always retains a bounded trailing window, and
// an anomaly freezes the window into a timestamped dump file with both the
// pre-trigger context and a post-trigger tail.
//
// Like the rest of the observability layer, everything is pay-for-what-you-
// use: a nil *FlightRecorder is a valid, disabled recorder whose Observe is
// a single nil check and zero allocations (see BenchmarkFlightDisabled),
// so harnesses can hold one unconditionally.
package health

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/state"
)

// Trigger identifies the anomaly that froze a flight recording: which
// detector fired, when, and the threshold-versus-observed pair that made
// the call. It is embedded verbatim in the dump file so a postmortem
// starts from the verdict, not from raw data.
type Trigger struct {
	Detector  string    `json:"detector"`
	At        time.Time `json:"at"`
	Threshold float64   `json:"threshold"`
	Observed  float64   `json:"observed"`
	// Detail is a human-readable one-liner ("p99 ack wait 1.2s over 30s
	// window"), for log lines and the leasemon dump view.
	Detail string `json:"detail,omitempty"`
}

// String renders the trigger for logs.
func (t Trigger) String() string {
	s := fmt.Sprintf("%s: observed %g, threshold %g", t.Detector, t.Observed, t.Threshold)
	if t.Detail != "" {
		s += " (" + t.Detail + ")"
	}
	return s
}

// MetricSample is one per-second snapshot of selected metric values, taken
// by the engine tick and retained in the flight ring alongside events.
type MetricSample struct {
	Unix   int64              `json:"unix"`
	Values map[string]float64 `json:"values"`
}

// FlightRecorder continuously retains the most recent protocol events in an
// obs.Ring (one allocation plus two atomic ops per recorded event, no mutex
// on the record path), plus per-second metric samples and references to the
// span recorder and cost accounting whose own rings are snapshotted at freeze
// time.
//
// A nil *FlightRecorder is a valid, disabled recorder: Observe is a nil
// check and the event never escapes, which is the zero-allocation fast
// path BenchmarkFlightDisabled gates.
type FlightRecorder struct {
	node   string
	window time.Duration
	events *obs.Ring[obs.Event]
	// Per-second metric samples, written by the engine tick, covering window.
	samples *obs.Ring[MetricSample]

	// Attached sources, set before traffic starts; all optional.
	spans *obs.SpanRecorder
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
	return &FlightRecorder{
		node:    node,
		window:  window,
		events:  obs.NewRing[obs.Event](size),
		samples: obs.NewRing[MetricSample](int(window/time.Second) + 1),
	}
}

// AttachSpans arranges for freezes to include the span recorder's retained
// spans. Call before traffic starts.
func (f *FlightRecorder) AttachSpans(r *obs.SpanRecorder) {
	if f == nil {
		return
	}
	f.spans = r
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

// Sample retains one per-second metric snapshot, overwriting the oldest
// once the ring covers the window. The engine tick calls it; tests may too.
func (f *FlightRecorder) Sample(s MetricSample) {
	if f == nil {
		return
	}
	f.samples.Add(s)
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

// Snapshot freezes the recorder into a Dump: the trailing event window,
// the attached span recorder's retained spans, the attached accounting's
// per-second load, and the per-second metric samples. tr (optional)
// names the anomaly that caused the freeze.
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
	if f.spans != nil {
		cutoff := now.Add(-f.window)
		for _, s := range f.spans.Snapshot() {
			if s.End().Before(cutoff) {
				continue
			}
			d.Spans = append(d.Spans, s.JSON())
		}
	}
	d.Seconds = f.cost.Seconds()
	d.Samples = f.samples.Snapshot()
	sort.Slice(d.Samples, func(i, j int) bool { return d.Samples[i].Unix < d.Samples[j].Unix })
	if f.state != nil {
		ls := f.state.Snapshot()
		d.LeaseState = &ls
	}
	return d
}

// Dump is a frozen flight recording — the file format written next to an
// anomaly and served at /debug/flightrecorder. Everything is plain JSON so
// leasemon, tests, and humans parse it the same way.
type Dump struct {
	Node          string          `json:"node"`
	WrittenAt     time.Time       `json:"written_at"`
	WindowSeconds int             `json:"window_seconds"`
	Trigger       *Trigger        `json:"trigger,omitempty"`
	Events        []obs.EventJSON `json:"events"`
	Spans         []obs.SpanJSON  `json:"spans,omitempty"`
	Seconds       []cost.Second   `json:"seconds,omitempty"`
	Samples       []MetricSample  `json:"samples,omitempty"`
	// LeaseState is the node's frozen lease-table snapshot (who held what
	// until when at freeze time), attached via AttachState.
	LeaseState *state.Dump `json:"lease_state,omitempty"`
}

// PreTriggerSpan reports how much event history before the trigger the dump
// retains (0 when there is no trigger or no earlier event) — the quantity
// the chaos acceptance test asserts on.
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

// FileName builds the dump's file name: flight-<node>-<detector>-<unixms>.json.
func (d Dump) FileName() string {
	det := "manual"
	if d.Trigger != nil {
		det = d.Trigger.Detector
	}
	node := d.Node
	if node == "" {
		node = "node"
	}
	return fmt.Sprintf("flight-%s-%s-%d.json", sanitize(node), sanitize(det), d.WrittenAt.UnixMilli())
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
// path.
func WriteDump(dir string, d Dump) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("health: dump dir: %w", err)
	}
	path := filepath.Join(dir, d.FileName())
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", fmt.Errorf("health: encode dump: %w", err)
	}
	// Written beside its final name and renamed into place, so a dump file
	// that exists is complete: whoever watches the directory never reads a
	// half-written one.
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("health: write dump: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("health: write dump: %w", err)
	}
	return path, nil
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
	tr := &Trigger{Detector: "test-failure", At: now, Detail: testName}
	return WriteDump(DumpDir(fallbackDir), f.Snapshot(now, tr))
}
