package cost

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/health"
	"repro/internal/obs"
)

// ProfilerOptions configures the continuous profiler.
type ProfilerOptions struct {
	// Node names the process in capture metadata.
	Node string
	// Clock drives the sampling cadence; defaults to clock.Real. Injected
	// so simulated harnesses can step captures deterministically.
	Clock clock.Clock
	// Interval between capture cycles; default 30s.
	Interval time.Duration
	// Ring is how many individual captures to retain; default 24 (eight
	// cycles of heap+goroutine+CPU, or twelve without CPU).
	Ring int
	// CPUWindow is how long each cycle's CPU profile runs; 0 disables CPU
	// capture. Only one CPU profile can be active per process — leave this
	// 0 on nodes where humans use /debug/pprof/profile interactively.
	CPUWindow time.Duration
	// Logf, when set, receives capture errors (CPU profile contention,
	// pprof failures); nil discards them.
	Logf func(format string, args ...any)
}

// Profiler periodically captures heap, goroutine, and (optionally) CPU
// profiles into a fixed-size ring — the flight-recorder idea applied to
// runtime profiles: always retain the recent past, freeze it when an
// anomaly needs explaining. It implements health.ProfileSource, so
// FlightRecorder.AttachProfiles(p) makes every anomaly dump carry the
// profiles that led up to it.
//
// A nil *Profiler is valid and disabled: Start/Close are no-ops and
// SnapshotProfiles returns nil.
type Profiler struct {
	opts ProfilerOptions

	ring *obs.Ring[health.ProfileCapture]

	mu sync.Mutex
	// Previous capture's cumulative allocator counters, for delta-heap:
	// how much was allocated (bytes, objects) between consecutive heap
	// captures — the growth signal a point-in-time profile hides.
	prevTotalAlloc uint64
	prevMallocs    uint64
	prevValid      bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

var _ health.ProfileSource = (*Profiler)(nil)

// NewProfiler returns a stopped profiler; call Start to begin sampling.
func NewProfiler(opts ProfilerOptions) *Profiler {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.Interval <= 0 {
		opts.Interval = 30 * time.Second
	}
	if opts.Ring <= 0 {
		opts.Ring = 24
	}
	return &Profiler{
		opts: opts,
		ring: obs.NewRing[health.ProfileCapture](opts.Ring),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start launches the sampler goroutine. Safe on a nil receiver; repeated
// calls are no-ops.
func (p *Profiler) Start() {
	if p == nil {
		return
	}
	p.startOnce.Do(func() { go p.loop() })
}

// Close stops the sampler and waits for it to exit. Safe on a nil
// receiver, safe to call before Start (the loop is never launched twice),
// and idempotent.
func (p *Profiler) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
	// Claim the start once: if Start never ran, the loop can no longer
	// launch and done is closed here; if it did, the loop closes done on
	// exit and this Do is a no-op.
	p.startOnce.Do(func() { close(p.done) })
	<-p.done
}

func (p *Profiler) loop() {
	defer close(p.done)
	for {
		select {
		case <-p.stop:
			return
		case <-p.opts.Clock.After(p.opts.Interval):
			p.CaptureNow()
		}
	}
}

// CaptureNow runs one capture cycle immediately: a heap profile with
// delta-heap metadata, a goroutine profile, and — when CPUWindow is set —
// a CPU profile covering that window. Exposed for the ?capture handler and
// tests; safe on a nil receiver.
func (p *Profiler) CaptureNow() {
	if p == nil {
		return
	}
	now := p.opts.Clock.Now()

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heap := health.ProfileCapture{
		Kind:           "heap",
		At:             now,
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
	}
	p.mu.Lock()
	if p.prevValid {
		heap.DeltaAllocBytes = int64(ms.TotalAlloc - p.prevTotalAlloc)
		heap.DeltaMallocs = int64(ms.Mallocs - p.prevMallocs)
	}
	p.prevTotalAlloc, p.prevMallocs, p.prevValid = ms.TotalAlloc, ms.Mallocs, true
	p.mu.Unlock()
	var buf bytes.Buffer
	if prof := pprof.Lookup("heap"); prof != nil {
		if err := prof.WriteTo(&buf, 0); err == nil {
			heap.Data = append([]byte(nil), buf.Bytes()...)
		} else {
			p.logf("cost: heap profile: %v", err)
		}
	}
	p.retain(heap)

	buf.Reset()
	gr := health.ProfileCapture{Kind: "goroutine", At: now, Goroutines: runtime.NumGoroutine()}
	if prof := pprof.Lookup("goroutine"); prof != nil {
		if err := prof.WriteTo(&buf, 0); err == nil {
			gr.Data = append([]byte(nil), buf.Bytes()...)
		} else {
			p.logf("cost: goroutine profile: %v", err)
		}
	}
	p.retain(gr)

	if p.opts.CPUWindow > 0 {
		buf.Reset()
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Another CPU profile is running (a human on /debug/pprof, or
			// another profiler); skip this cycle rather than fight over it.
			p.logf("cost: cpu profile: %v", err)
		} else {
			p.opts.Clock.Sleep(p.opts.CPUWindow)
			pprof.StopCPUProfile()
			p.retain(health.ProfileCapture{
				Kind: "cpu",
				At:   now,
				Data: append([]byte(nil), buf.Bytes()...),
			})
		}
	}
}

// retain numbers c and adds it to the ring. IDs are issued under mu so they
// ascend in ring order even when the handler's ?capture races the sampler.
func (p *Profiler) retain(c health.ProfileCapture) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c.ID = int64(p.ring.Total()) + 1
	p.ring.Add(c)
}

// SnapshotProfiles implements health.ProfileSource: the retained captures,
// oldest first, profile payloads included. Safe on a nil receiver.
func (p *Profiler) SnapshotProfiles() []health.ProfileCapture {
	if p == nil {
		return nil
	}
	return p.ring.Snapshot()
}

// Capture returns the retained capture with the given ID, if still in the
// ring.
func (p *Profiler) Capture(id int64) (health.ProfileCapture, bool) {
	if p == nil {
		return health.ProfileCapture{}, false
	}
	for _, c := range p.ring.Snapshot() {
		if c.ID == id {
			return c, true
		}
	}
	return health.ProfileCapture{}, false
}

func (p *Profiler) logf(format string, args ...any) {
	if p.opts.Logf != nil {
		p.opts.Logf(format, args...)
	}
}
