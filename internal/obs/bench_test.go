package obs

import (
	"testing"
	"time"
)

// BenchmarkEmitDisabled measures the disabled-tracer fast path every
// instrumented call site pays when observability is off: building the
// Event value and hitting the nil check. The acceptance bar is zero
// allocations and low-single-digit nanoseconds — within noise of the
// uninstrumented seed.
func BenchmarkEmitDisabled(b *testing.B) {
	var o *Observer
	at := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Emit(Event{
			Type: EvObjLeaseGrant, At: at, Node: "srv",
			Client: "c1", Object: "obj-1", Volume: "vol",
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

// BenchmarkSpanDisabled measures the disabled-span fast path the write
// path pays when causal tracing is off: fetching the recorder (nil) and the
// guard checks around every would-be span. The acceptance bar is zero
// allocations — the traced write path must cost nothing when no recorder
// is wired up.
func BenchmarkSpanDisabled(b *testing.B) {
	var o *Observer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr := o.SpanRec()
		if sr != nil {
			b.Fatal("recorder unexpectedly enabled")
		}
		if trace := sr.NewID(); trace != 0 {
			b.Fatal("nil recorder issued a trace id")
		}
		sr.Record(Span{Kind: SpanWrite})
	}
}

// BenchmarkSpanRecord measures the enabled path: one completed span into
// the lock-free ring.
func BenchmarkSpanRecord(b *testing.B) {
	rec := NewSpanRecorder(1024)
	at := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record(Span{
			Trace: uint64(i), ID: uint64(i), Kind: SpanWrite,
			Node: "srv", Object: "obj-1", Start: at, Dur: time.Millisecond,
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
