package obs

import (
	"testing"
	"time"
)

// BenchmarkEmitDisabled measures the disabled-tracer fast path every
// instrumented call site pays when observability is off: building the
// Event value and hitting the nil check — for a plain protocol event and for
// one carrying a traced write's causal ids and phase timing, ids minted by
// the nil observer. The acceptance bar is zero allocations and
// low-single-digit nanoseconds — within noise of the uninstrumented seed.
func BenchmarkEmitDisabled(b *testing.B) {
	var o *Observer
	at := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(Event{
			Type: EvObjLeaseGrant, At: at, Node: "srv",
			Client: "c1", Object: "obj-1", Volume: "vol",
		})
		o.Emit(Event{
			Type: EvWriteUnblocked, At: at, Node: "srv", Object: "obj-1",
			Volume: "vol", N: 1, Dur: time.Millisecond,
			Trace: o.NewID(), Span: o.NewID(), Parent: o.NewID(),
		})
	}
}

// BenchmarkEmitCountSink measures the enabled path into the cheapest sink.
func BenchmarkEmitCountSink(b *testing.B) {
	o := &Observer{Tracer: NewTracer(NewCountSink())}
	at := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(Event{
			Type: EvObjLeaseGrant, At: at, Node: "srv",
			Client: "c1", Object: "obj-1", Volume: "vol",
		})
	}
}

// BenchmarkCounterInc measures one registry counter bump.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
