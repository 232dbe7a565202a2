package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Counter is a monotonically increasing metric, safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n should be non-negative).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous integer value, safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add shifts the value by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry holds named metrics for export. Series names follow Prometheus
// conventions: a base name, optionally followed by a label set in braces,
// e.g. `lease_wire_messages_total{class="invalidate"}`. The full string is
// the registry key; the base name groups series into a family for the
// Prometheus TYPE header.
//
// All methods are safe for concurrent use. Get-or-create accessors return
// the existing metric when the name is already registered, so independent
// components can share series without coordination.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() float64
	hists    map[string]*metrics.Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() float64),
		hists:    make(map[string]*metrics.Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a callback sampled at scrape time — the natural fit
// for values the system already tracks (active leases, queue depths). f must
// be safe to call from scrape goroutines. Like expvar.Publish, it panics if
// name is already registered: two components exporting one series would
// otherwise silently drop the first one's callback.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[name]; dup {
		panic("obs: duplicate GaugeFunc " + name)
	}
	r.funcs[name] = f
}

// Histogram returns the named latency histogram, creating it on first use.
// Exported as a Prometheus summary in seconds.
func (r *Registry) Histogram(name string) *metrics.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = new(metrics.Histogram)
		r.hists[name] = h
	}
	return h
}

// RegisterHistogram exports an externally owned latency histogram under
// name. Components that maintain their own histogram (e.g. the server's
// ack-wait distribution) use this instead of Histogram so a single instance
// backs both their own use and the export. It panics if name is already
// registered, as GaugeFunc does.
func (r *Registry) RegisterHistogram(name string, h *metrics.Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.hists[name]; dup {
		panic("obs: duplicate histogram " + name)
	}
	r.hists[name] = h
}

// seriesKind classifies a series for the Prometheus TYPE header.
type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindSummary
)

// series is one exported metric at snapshot time.
type series struct {
	name string
	kind seriesKind
	val  float64
	hist *metrics.Histogram
}

// snapshot collects every series sorted by name. Gauge funcs are sampled
// outside the registry lock so a slow callback cannot stall writers.
func (r *Registry) snapshot() []series {
	r.mu.Lock()
	out := make([]series, 0, len(r.counters)+len(r.gauges)+len(r.funcs)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, series{name: name, kind: kindCounter, val: float64(c.Value())})
	}
	for name, g := range r.gauges {
		out = append(out, series{name: name, kind: kindGauge, val: float64(g.Value())})
	}
	funcs := make(map[string]func() float64, len(r.funcs))
	for name, f := range r.funcs {
		funcs[name] = f
	}
	for name, h := range r.hists {
		out = append(out, series{name: name, kind: kindSummary, hist: h})
	}
	r.mu.Unlock()

	for name, f := range funcs {
		out = append(out, series{name: name, kind: kindGauge, val: f()})
	}
	// Sort by (family, full name), not the full name alone: '{' sorts after
	// '_', so a family with both bare and labeled series (`a` and `a{x=...}`)
	// would otherwise be split around its `a_suffix` siblings and
	// WritePrometheus would emit the family's TYPE header twice — invalid
	// exposition format.
	sort.Slice(out, func(i, j int) bool {
		fi, _ := splitName(out[i].name)
		fj, _ := splitName(out[j].name)
		if fi != fj {
			return fi < fj
		}
		return out[i].name < out[j].name
	})
	return out
}

// splitName separates a series name into its family (base name) and label
// block: `a{b="c"}` yields family `a` with labels `b="c"`; a plain name
// yields empty labels.
func splitName(name string) (family, labels string) {
	for i := 0; i < len(name); i++ {
		if name[i] == '{' {
			family = name[:i]
			labels = name[i+1:]
			if n := len(labels); n > 0 && labels[n-1] == '}' {
				labels = labels[:n-1]
			}
			return family, labels
		}
	}
	return name, ""
}
