package health

import (
	"fmt"
	"sync"

	"repro/internal/clock"
	"repro/internal/obs"
)

// Options configures a Dumper.
type Options struct {
	// Node labels the dumps and the lease_health_* series.
	Node string
	// Clock stamps dumps; defaults to the wall clock.
	Clock clock.Clock
	// Flight is the recorder a freeze snapshots; nil disables freezing.
	Flight *FlightRecorder
	// DumpDir receives dump files; empty disables freezing.
	DumpDir string
	// Logf, when non-nil, receives one line per dump.
	Logf func(format string, args ...any)
}

// Dumper freezes a flight recorder into dump files on demand (ForceDump).
//
// A nil *Dumper is a valid disabled one: ForceDump errors.
type Dumper struct {
	opts Options

	mu      sync.Mutex
	written *obs.Counter // lease_health_dumps_written_total, once registered
}

// NewDumper builds a dumper.
func NewDumper(opts Options) *Dumper {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	return &Dumper{opts: opts}
}

// ForceDump freezes the flight recorder now — the manual pull-the-tapes
// operation behind `leasemon -freeze`. reason lands in the dump's trigger
// detail.
func (d *Dumper) ForceDump(reason string) (string, error) {
	if d == nil || d.opts.Flight == nil {
		return "", fmt.Errorf("health: no flight recorder attached")
	}
	if d.opts.DumpDir == "" {
		return "", fmt.Errorf("health: no dump directory configured")
	}
	return d.freeze(Trigger{Cause: "manual", At: d.opts.Clock.Now(), Detail: reason})
}

// freeze snapshots the recorder, writes the dump and counts it.
func (d *Dumper) freeze(tr Trigger) (string, error) {
	path, err := WriteDump(d.opts.DumpDir, d.opts.Flight.Snapshot(d.opts.Clock.Now(), &tr))
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	if d.written != nil {
		d.written.Inc()
	}
	d.mu.Unlock()
	d.logf("health: %s wrote flight dump %s (%s)", d.opts.Node, path, tr.Cause)
	return path, nil
}

func (d *Dumper) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Register exports the dumper through a metrics registry, labeled by node:
//
//	lease_health_dumps_written_total{node} — flight dumps on disk
func (d *Dumper) Register(reg *obs.Registry) {
	if d == nil || reg == nil {
		return
	}
	written := reg.Counter(fmt.Sprintf("lease_health_dumps_written_total{node=%q}", d.opts.Node))
	d.mu.Lock()
	d.written = written
	d.mu.Unlock()
}
