// Package health is the flight-dump format of the live lease stack: the
// last protocol events a node retained (causal write records included),
// frozen into one file with the node's per-second load and its lease table,
// when an operator asks (leasemon -freeze, which builds the dump from the
// node's /debug/events, /debug/cost and /debug/leases) or a failing test
// leaves its evidence behind (FailureDump).
//
// The paper's hardest moments — renewal storms after a server crash,
// unreachable-client wait-outs, invalidation backlog on a hot volume — are
// exactly the moments where scraped metrics are too coarse and the full
// event stream too big to keep. The node's one event ring (obs.RingSink,
// -trace N) always retains a bounded trailing window, the way an aircraft
// recorder does, and a freeze writes that window into a timestamped dump
// file. Alerting on the scraped metrics is the scraper's job (cmd/leasemon's
// rule table).
package health

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
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
	// Cause is "manual" (leasemon -freeze) or "test-failure" (FailureDump);
	// it names the dump file too.
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

// Freeze builds node's dump at now from what its stack retains: every event
// ring holds, in the order /debug/events serves them (oldest first), and —
// where given — acct's per-second load and src's lease table. tr (optional)
// says why. A nil ring freezes no events.
func Freeze(node string, now time.Time, tr *Trigger, ring *obs.RingSink, acct *cost.Accounting, src *state.Source) Dump {
	d := Dump{Node: node, WrittenAt: now, Trigger: tr, Seconds: acct.Seconds()}
	if ring != nil {
		for _, e := range ring.Snapshot() {
			d.Events = append(d.Events, e.JSON())
		}
	}
	if src != nil {
		ls := src.Snapshot()
		d.LeaseState = &ls
	}
	return d
}

// Dump is a frozen flight recording — the file format written on a freeze.
// Everything is plain JSON so leasemon, tests, and humans parse it the same
// way. Older dumps may also carry "window_seconds" and "spans"; both are
// ignored.
type Dump struct {
	Node      string          `json:"node"`
	WrittenAt time.Time       `json:"written_at"`
	Trigger   *Trigger        `json:"trigger,omitempty"`
	Events    []obs.EventJSON `json:"events"`
	Seconds   []cost.Second   `json:"seconds,omitempty"`
	// LeaseState is the node's frozen lease-table snapshot (who held what
	// until when at freeze time).
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

// DumpDir resolves where a freeze writes its dump: $FLIGHT_DUMP_DIR when set
// (CI exports it so failed chaos runs upload their dumps as artifacts, and
// make loadtest points leasemon -freeze at its output directory), otherwise
// fallback.
func DumpDir(fallback string) string {
	if d := os.Getenv("FLIGHT_DUMP_DIR"); d != "" {
		return d
	}
	return fallback
}

// FailureDump freezes node's ring into DumpDir(fallbackDir) under a
// synthetic "test-failure" trigger naming the failed test. Chaos and
// integration harnesses call it from a t.Cleanup guarded by t.Failed(), so a
// failing run leaves its black box behind and CI uploads $FLIGHT_DUMP_DIR as
// an artifact. now is passed in (rather than read here) so callers on
// simulated time stamp the dump on their own timeline.
func FailureDump(node string, ring *obs.RingSink, now time.Time, testName, fallbackDir string) (string, error) {
	tr := &Trigger{Cause: "test-failure", At: now, Detail: testName}
	return WriteDump(DumpDir(fallbackDir), Freeze(node, now, tr, ring, nil, nil))
}
