package health

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// CauseAudit is the cause of the one automatic freeze: the auditor recorded
// an invariant violation.
const CauseAudit = "audit-violation"

const (
	// Tail is how long after a trigger the freeze waits, so the dump holds
	// the aftermath as well as the lead-up.
	Tail = 2 * time.Second
	// Cooldown is how long after an accepted trigger later ones freeze
	// nothing, so a sustained anomaly leaves one dump, not one per event.
	Cooldown = 30 * time.Second
)

// Options configures a Dumper.
type Options struct {
	// Node labels the dumps and the lease_health_* series.
	Node string
	// Clock stamps dumps and times the trigger's tail and cooldown; defaults
	// to the wall clock.
	Clock clock.Clock
	// Flight is the recorder a freeze snapshots; nil disables freezing.
	Flight *FlightRecorder
	// DumpDir receives dump files; empty disables freezing.
	DumpDir string
	// StalenessBurn, when non-nil, reports the worst observed staleness as
	// a fraction of the analytic bound min(t, t_v); exported as
	// lease_health_staleness_budget_burn.
	StalenessBurn func() float64
	// Logf, when non-nil, receives one line per trigger and per dump.
	Logf func(format string, args ...any)
}

// Dumper freezes a flight recorder into dump files and keeps their ledger.
// Freezes happen on demand (ForceDump) and from the one automatic trigger
// (Trigger), which the daemon hands the auditor.
//
// A nil *Dumper is a valid disabled one: Trigger and Close do nothing, Files
// is empty and ForceDump errors.
type Dumper struct {
	opts Options

	mu      sync.Mutex
	files   []string
	last    time.Time // when the last accepted trigger fired
	closed  bool
	written *obs.Counter // lease_health_dumps_written_total, once registered

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewDumper builds a dumper.
func NewDumper(opts Options) *Dumper {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	return &Dumper{opts: opts, stop: make(chan struct{})}
}

// Trigger freezes one dump Tail from now, so it holds the aftermath as well
// as the lead-up; a trigger inside the Cooldown of the last accepted one
// freezes nothing. It never blocks and never calls back into its caller, so
// the auditor may call it with its own lock held. Close writes a freeze
// still waiting out its tail at once.
func (d *Dumper) Trigger(cause, detail string) {
	if d == nil || d.opts.Flight == nil || d.opts.DumpDir == "" {
		return
	}
	now := d.opts.Clock.Now()
	d.mu.Lock()
	if d.closed || (!d.last.IsZero() && now.Sub(d.last) < Cooldown) {
		d.mu.Unlock()
		return
	}
	d.last = now
	d.wg.Add(1) // under mu, so Close cannot be waiting already
	d.mu.Unlock()
	tr := Trigger{Cause: cause, At: now, Detail: detail}
	// The tail timer is registered before Trigger returns, so a simulated
	// clock advanced right after the trigger still fires it.
	tail := d.opts.Clock.After(Tail)
	go func() {
		defer d.wg.Done()
		d.logf("health: %s triggered by %s; freezing in %v", d.opts.Node, tr, Tail)
		select {
		case <-d.stop:
		case <-tail:
		}
		if _, err := d.freeze(tr); err != nil {
			d.logf("health: %s dump failed: %v", d.opts.Node, err)
		}
	}()
}

// ForceDump freezes the flight recorder now — the manual pull-the-tapes
// operation behind `leasemon -freeze` and AuditErr. reason lands in the
// dump's trigger detail.
func (d *Dumper) ForceDump(reason string) (string, error) {
	if d == nil || d.opts.Flight == nil {
		return "", fmt.Errorf("health: no flight recorder attached")
	}
	if d.opts.DumpDir == "" {
		return "", fmt.Errorf("health: no dump directory configured")
	}
	return d.freeze(Trigger{Cause: "manual", At: d.opts.Clock.Now(), Detail: reason})
}

// freeze snapshots the recorder, writes the dump and enters it in the ledger.
func (d *Dumper) freeze(tr Trigger) (string, error) {
	path, err := WriteDump(d.opts.DumpDir, d.opts.Flight.Snapshot(d.opts.Clock.Now(), &tr))
	if err != nil {
		return "", err
	}
	d.mu.Lock()
	d.files = append(d.files, path)
	if d.written != nil {
		d.written.Inc()
	}
	d.mu.Unlock()
	d.logf("health: %s wrote flight dump %s (%s)", d.opts.Node, path, tr.Cause)
	return path, nil
}

// Files lists the dumps written so far, oldest first.
func (d *Dumper) Files() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.files...)
}

// Close stops accepting triggers and writes a freeze still waiting out its
// tail at once: a failing run must still leave its evidence behind. Safe on
// a nil dumper and more than once.
func (d *Dumper) Close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.stop)
	}
	d.mu.Unlock()
	d.wg.Wait()
}

func (d *Dumper) logf(format string, args ...any) {
	if d.opts.Logf != nil {
		d.opts.Logf(format, args...)
	}
}

// Register exports the dumper through a metrics registry, labeled by node:
//
//	lease_health_dumps_written_total{node}   — flight dumps on disk
//	lease_health_staleness_budget_burn{node} — worst observed staleness as a
//	                                           fraction of the min(t, t_v) bound
func (d *Dumper) Register(reg *obs.Registry) {
	if d == nil || reg == nil {
		return
	}
	written := reg.Counter(fmt.Sprintf("lease_health_dumps_written_total{node=%q}", d.opts.Node))
	d.mu.Lock()
	d.written = written
	d.mu.Unlock()
	if d.opts.StalenessBurn != nil {
		reg.GaugeFunc(fmt.Sprintf("lease_health_staleness_budget_burn{node=%q}", d.opts.Node), d.opts.StalenessBurn)
	}
}
