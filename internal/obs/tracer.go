// Package obs is the runtime observability layer of the live lease stack:
// a typed protocol-event tracer with pluggable sinks, a metrics registry
// exported in expvar-style JSON and Prometheus text form, and a debug HTTP
// server bundling both with net/http/pprof.
//
// The design goal is zero overhead when disabled: a nil *Tracer and a nil
// *Observer are fully functional no-ops (a single nil check on the hot
// path), so the instrumented server/client/proxy packages pay nothing when
// observability is not wired up.
package obs

import (
	"context"
	"log/slog"
	"sync/atomic"
)

// Sink consumes a stream of protocol events. Implementations must be safe
// for concurrent use; Observe is called inline on protocol goroutines, so
// it must be fast and must not block.
type Sink interface {
	Observe(Event)
}

// Tracer fans protocol events out to its sinks. A nil *Tracer is a valid,
// disabled tracer: Emit is a nil check and Enabled reports false, which is
// the zero-overhead fast path the instrumented packages rely on.
type Tracer struct {
	sinks []Sink
}

// NewTracer builds a tracer feeding the given sinks. With no sinks the
// tracer is enabled-but-inert; prefer a nil *Tracer to disable tracing.
func NewTracer(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// Enabled reports whether events will reach at least one sink. Call sites
// that must compute event fields eagerly should guard on it.
func (t *Tracer) Enabled() bool { return t != nil && len(t.sinks) > 0 }

// Sinks returns the tracer's sinks (nil for a nil tracer), so callers can
// rebuild a tracer with an extra sink attached.
func (t *Tracer) Sinks() []Sink {
	if t == nil {
		return nil
	}
	return t.sinks
}

// Emit delivers e to every sink. Safe on a nil tracer.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.Observe(e)
	}
}

// Observer bundles the halves of the observability layer as components
// consume them. A nil *Observer disables all of them; components nil-check
// once.
type Observer struct {
	Tracer  *Tracer
	Metrics *Registry

	ids atomic.Uint64
}

// Tracing reports whether event emission is live. It is also the switch for
// causal tracing: the instrumented packages time their phases, mint ids and
// propagate trace contexts on the wire only when it holds.
func (o *Observer) Tracing() bool { return o != nil && o.Tracer.Enabled() }

// Emit forwards to the tracer; safe on a nil observer.
func (o *Observer) Emit(e Event) {
	if o == nil {
		return
	}
	o.Tracer.Emit(e)
}

// NewID returns a fresh nonzero trace/span id (0 on a nil observer). Ids are
// process-local; records of one write in different processes share a trace
// because the trace id travels in the wire.TraceContext, not because
// observers coordinate.
func (o *Observer) NewID() uint64 {
	if o == nil {
		return 0
	}
	return o.ids.Add(1)
}

// Registry returns the metrics registry, nil when absent.
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// --- Sinks ---

// CountSink counts events per type with atomics; tests assert on it
// without retaining event payloads.
type CountSink struct {
	counts [numEventTypes]atomic.Int64
}

// NewCountSink returns a zeroed counting sink.
func NewCountSink() *CountSink { return &CountSink{} }

// Observe implements Sink.
func (c *CountSink) Observe(e Event) {
	if e.Type > 0 && int(e.Type) < len(c.counts) {
		c.counts[e.Type].Add(1)
	}
}

// Count reports how many events of type t were observed.
func (c *CountSink) Count(t EventType) int64 {
	if t > 0 && int(t) < len(c.counts) {
		return c.counts[t].Load()
	}
	return 0
}

// Total reports the count across all types.
func (c *CountSink) Total() int64 {
	var n int64
	for i := range c.counts {
		n += c.counts[i].Load()
	}
	return n
}

// FuncSink adapts a function to the Sink interface.
type FuncSink func(Event)

// Observe implements Sink.
func (f FuncSink) Observe(e Event) { f(e) }

// SlogSink renders events as structured log records — the daemon-facing
// sink. Empty fields are omitted so the records stay terse.
type SlogSink struct {
	log   *slog.Logger
	level slog.Level
}

// NewSlogSink logs every event to l at level.
func NewSlogSink(l *slog.Logger, level slog.Level) *SlogSink {
	return &SlogSink{log: l, level: level}
}

// Observe implements Sink.
func (s *SlogSink) Observe(e Event) {
	if !s.log.Enabled(context.Background(), s.level) {
		return
	}
	attrs := make([]slog.Attr, 0, 8)
	attrs = append(attrs, slog.String("node", e.Node))
	if e.Client != "" {
		attrs = append(attrs, slog.String("client", string(e.Client)))
	}
	if e.Object != "" {
		attrs = append(attrs, slog.String("object", string(e.Object)))
	}
	if e.Volume != "" {
		attrs = append(attrs, slog.String("volume", string(e.Volume)))
	}
	if e.Epoch != 0 {
		attrs = append(attrs, slog.Int64("epoch", int64(e.Epoch)))
	}
	if e.N != 0 {
		attrs = append(attrs, slog.Int("n", e.N))
	}
	if e.Dur != 0 {
		attrs = append(attrs, slog.Duration("dur", e.Dur))
	}
	s.log.LogAttrs(context.Background(), s.level, e.Type.String(), attrs...)
}
