package health

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Detector names, used in Trigger.Detector, metric labels, and the
// /debug/health report.
const (
	DetAckWaitP99  = "ack-wait-p99"
	DetRenewStorm  = "renewal-storm"
	DetBacklog     = "inval-backlog"
	DetUnreachable = "unreachable-growth"
	DetAudit       = "audit-violation"
	DetEpochBump   = "epoch-bump"
)

// Detector is one anomaly rule evaluated against the live stream. Observe
// is called inline on protocol goroutines for every event (it must be fast
// and safe for concurrent use); Tick is called by the engine once per tick
// on a single goroutine and reports whether the rule fired, with the
// threshold/observed evidence.
type Detector interface {
	Name() string
	Observe(e obs.Event)
	Tick(now time.Time) (Trigger, bool)
}

// --- rate detector -------------------------------------------------------

// RateDetector fires when the count of matching events inside a sliding
// window reaches a threshold: reconnect/renewal storms, unreachable-set
// growth, epoch bumps (threshold 1).
type RateDetector struct {
	name      string
	match     func(obs.Event) bool
	window    int // seconds
	threshold int

	mu      sync.Mutex
	buckets []rateBucket
}

type rateBucket struct {
	sec int64
	n   int
}

// NewRateDetector builds a rate rule: fire when >= threshold matching
// events land within the trailing window seconds (window min 1).
func NewRateDetector(name string, window, threshold int, match func(obs.Event) bool) *RateDetector {
	if window < 1 {
		window = 1
	}
	if threshold < 1 {
		threshold = 1
	}
	return &RateDetector{
		name: name, match: match,
		window: window, threshold: threshold,
		buckets: make([]rateBucket, window+1),
	}
}

// Name implements Detector.
func (d *RateDetector) Name() string { return d.name }

// Observe implements Detector, bucketing matching events per second.
// Events without a timestamp are ignored (the instrumented stack always
// stamps At).
func (d *RateDetector) Observe(e obs.Event) {
	if !d.match(e) || e.At.IsZero() {
		return
	}
	sec := e.At.Unix()
	d.mu.Lock()
	defer d.mu.Unlock()
	b := &d.buckets[int(uint64(sec)%uint64(len(d.buckets)))]
	if b.sec != sec {
		if sec < b.sec {
			return // stale event older than the bucket's tenant
		}
		b.sec, b.n = sec, 0
	}
	b.n++
}

// Tick implements Detector.
func (d *RateDetector) Tick(now time.Time) (Trigger, bool) {
	oldest := now.Unix() - int64(d.window) + 1
	var n int
	d.mu.Lock()
	for i := range d.buckets {
		if b := d.buckets[i]; b.sec >= oldest && b.sec <= now.Unix() {
			n += b.n
		}
	}
	d.mu.Unlock()
	if n < d.threshold {
		return Trigger{}, false
	}
	return Trigger{
		Detector:  d.name,
		At:        now,
		Threshold: float64(d.threshold),
		Observed:  float64(n),
		Detail:    fmt.Sprintf("%d events in %ds window", n, d.window),
	}, true
}

// --- ack-wait p99 detector ----------------------------------------------

// AckWaitP99 fires when the p99 of write ack-collection waits
// (EvWriteUnblocked durations) inside the window reaches a threshold — the
// paper's min(t, t_v) wait going bad in the tail, the signature of
// unreachable clients stalling writes.
type AckWaitP99 struct {
	threshold  time.Duration
	window     time.Duration
	minSamples int
	samples    *obs.Ring[waitSample]
}

type waitSample struct {
	at  time.Time
	dur time.Duration
}

// NewAckWaitP99 builds the rule: fire when p99(ack wait) >= threshold over
// the trailing window, with at least minSamples waits observed (min 1).
func NewAckWaitP99(threshold, window time.Duration, minSamples int) *AckWaitP99 {
	if window <= 0 {
		window = 30 * time.Second
	}
	if minSamples < 1 {
		minSamples = 1
	}
	return &AckWaitP99{
		threshold:  threshold,
		window:     window,
		minSamples: minSamples,
		samples:    obs.NewRing[waitSample](1024),
	}
}

// Name implements Detector.
func (d *AckWaitP99) Name() string { return DetAckWaitP99 }

// Observe implements Detector, retaining ack-wait durations in a bounded
// ring.
func (d *AckWaitP99) Observe(e obs.Event) {
	if e.Type != obs.EvWriteUnblocked || e.At.IsZero() {
		return
	}
	d.samples.Add(waitSample{at: e.At, dur: e.Dur})
}

// Tick implements Detector.
func (d *AckWaitP99) Tick(now time.Time) (Trigger, bool) {
	cutoff := now.Add(-d.window)
	var waits metrics.Histogram
	for _, s := range d.samples.Snapshot() {
		if !s.at.Before(cutoff) {
			waits.Observe(s.dur)
		}
	}
	p99 := waits.Quantile(0.99)
	if waits.Count() < int64(d.minSamples) || p99 < d.threshold {
		return Trigger{}, false
	}
	return Trigger{
		Detector:  DetAckWaitP99,
		At:        now,
		Threshold: d.threshold.Seconds(),
		Observed:  p99.Seconds(),
		Detail:    fmt.Sprintf("p99 ack wait %v over %d writes in %v window", p99, waits.Count(), d.window),
	}, true
}

// --- polled detectors ----------------------------------------------------

// ThresholdDetector fires when a sampled value reaches a threshold — e.g.
// the server's pending-invalidation backlog, sampled from Stats at tick
// time rather than reconstructed from events.
type ThresholdDetector struct {
	name      string
	sample    func() float64
	threshold float64
}

// NewThresholdDetector builds the rule: fire when sample() >= threshold at
// tick time.
func NewThresholdDetector(name string, threshold float64, sample func() float64) *ThresholdDetector {
	return &ThresholdDetector{name: name, sample: sample, threshold: threshold}
}

// Name implements Detector.
func (d *ThresholdDetector) Name() string { return d.name }

// Observe implements Detector (polled rules ignore the stream).
func (d *ThresholdDetector) Observe(obs.Event) {}

// Tick implements Detector.
func (d *ThresholdDetector) Tick(now time.Time) (Trigger, bool) {
	v := d.sample()
	if v < d.threshold {
		return Trigger{}, false
	}
	return Trigger{
		Detector:  d.name,
		At:        now,
		Threshold: d.threshold,
		Observed:  v,
		Detail:    fmt.Sprintf("sampled value %g at or past %g", v, d.threshold),
	}, true
}

// IncreaseDetector fires whenever a sampled monotone counter increases
// between ticks — the audit-violation rule: any new invariant violation is
// an anomaly, whatever the absolute count.
type IncreaseDetector struct {
	name   string
	sample func() float64

	mu   sync.Mutex
	last float64
	seen bool
}

// NewIncreaseDetector builds the rule: fire when sample() exceeds its value
// at the previous tick. The first tick establishes the baseline without
// firing, so attaching to a process with pre-existing violations does not
// retroactively trigger.
func NewIncreaseDetector(name string, sample func() float64) *IncreaseDetector {
	return &IncreaseDetector{name: name, sample: sample}
}

// Name implements Detector.
func (d *IncreaseDetector) Name() string { return d.name }

// Observe implements Detector (polled rules ignore the stream).
func (d *IncreaseDetector) Observe(obs.Event) {}

// Tick implements Detector.
func (d *IncreaseDetector) Tick(now time.Time) (Trigger, bool) {
	v := d.sample()
	d.mu.Lock()
	last, seen := d.last, d.seen
	d.last, d.seen = v, true
	d.mu.Unlock()
	if !seen || v <= last {
		return Trigger{}, false
	}
	return Trigger{
		Detector:  d.name,
		At:        now,
		Threshold: last,
		Observed:  v,
		Detail:    fmt.Sprintf("count rose %g -> %g since last tick", last, v),
	}, true
}

// --- default rule set ----------------------------------------------------

// DetectorConfig parameterizes the standard rule set. Zero values pick the
// documented defaults; nil sample funcs disable the corresponding polled
// rule.
type DetectorConfig struct {
	// AckWaitP99 is the p99 ack-wait trigger threshold (default 500ms) over
	// AckWaitWindow (default 30s), needing AckWaitMinSamples waits
	// (default 5).
	AckWaitP99        time.Duration
	AckWaitWindow     time.Duration
	AckWaitMinSamples int
	// StormThreshold reconnect/redial events within StormWindow seconds
	// fire the renewal-storm rule (defaults 50 in 10s).
	StormThreshold int
	StormWindow    int
	// UnreachableThreshold unreachable transitions within UnreachableWindow
	// seconds fire the unreachable-growth rule (defaults 3 in 30s).
	UnreachableThreshold int
	UnreachableWindow    int
	// Backlog samples the pending-invalidation depth (e.g. from the
	// server's Stats); nil disables. BacklogThreshold defaults to 1000.
	Backlog          func() float64
	BacklogThreshold float64
	// AuditViolations samples the auditor's total violation count; nil
	// disables. Any increase between ticks fires.
	AuditViolations func() float64
}

// DefaultDetectors assembles the standard rule set of the tentpole: ack-wait
// p99 spike, reconnect/renewal storm, invalidation backlog, unreachable-set
// growth, audit violation, and epoch bump.
func DefaultDetectors(cfg DetectorConfig) []Detector {
	if cfg.AckWaitP99 <= 0 {
		cfg.AckWaitP99 = 500 * time.Millisecond
	}
	if cfg.AckWaitWindow <= 0 {
		cfg.AckWaitWindow = 30 * time.Second
	}
	if cfg.AckWaitMinSamples < 1 {
		cfg.AckWaitMinSamples = 5
	}
	if cfg.StormThreshold < 1 {
		cfg.StormThreshold = 50
	}
	if cfg.StormWindow < 1 {
		cfg.StormWindow = 10
	}
	if cfg.UnreachableThreshold < 1 {
		cfg.UnreachableThreshold = 3
	}
	if cfg.UnreachableWindow < 1 {
		cfg.UnreachableWindow = 30
	}
	if cfg.BacklogThreshold <= 0 {
		cfg.BacklogThreshold = 1000
	}
	ds := []Detector{
		NewAckWaitP99(cfg.AckWaitP99, cfg.AckWaitWindow, cfg.AckWaitMinSamples),
		NewRateDetector(DetRenewStorm, cfg.StormWindow, cfg.StormThreshold, func(e obs.Event) bool {
			return e.Type == obs.EvReconnect || e.Type == obs.EvRedial
		}),
		NewRateDetector(DetUnreachable, cfg.UnreachableWindow, cfg.UnreachableThreshold, func(e obs.Event) bool {
			return e.Type == obs.EvUnreachable
		}),
		NewRateDetector(DetEpochBump, 2, 1, func(e obs.Event) bool {
			return e.Type == obs.EvEpochBump
		}),
	}
	if cfg.Backlog != nil {
		ds = append(ds, NewThresholdDetector(DetBacklog, cfg.BacklogThreshold, cfg.Backlog))
	}
	if cfg.AuditViolations != nil {
		ds = append(ds, NewIncreaseDetector(DetAudit, cfg.AuditViolations))
	}
	return ds
}
