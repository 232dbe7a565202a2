package cost

import (
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkCostDisabled measures the disabled-accounting fast path: the nil
// check every charging call site pays when cost accounting is off. The
// acceptance bar is zero allocations and low-single-digit nanoseconds —
// `make bench-disabled` gates it alongside the Emit/State/Tap disabled
// paths.
func BenchmarkCostDisabled(b *testing.B) {
	var a *Accounting
	var m wire.Message = wire.ReqObjLease{Seq: 1, Object: "vol-3/obj-100", Version: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record(true, m, 24, 100*time.Nanosecond)
		if a.Enabled() {
			b.Fatal("accounting unexpectedly enabled")
		}
	}
}

// BenchmarkCostRecord measures the enabled per-frame charge: per-kind
// atomic adds, the volume lookup (this message has none), and the codec
// histogram.
func BenchmarkCostRecord(b *testing.B) {
	a := New("srv", nil)
	var m wire.Message = wire.ReqObjLease{Seq: 1, Object: "vol-3/obj-100", Version: 7}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record(true, m, 24, 100*time.Nanosecond)
	}
}

// BenchmarkCostRecordVolume measures the enabled charge for a
// volume-carrying kind: everything above plus the sync.Map hit.
func BenchmarkCostRecordVolume(b *testing.B) {
	a := New("srv", nil)
	var m wire.Message = wire.VolLease{Seq: 1, Volume: "vol-3", Epoch: 5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Record(true, m, 18, 100*time.Nanosecond)
	}
}

// BenchmarkCostConnFrame measures the full transport-boundary path: the
// per-connection sink charging itself plus the parent tables.
func BenchmarkCostConnFrame(b *testing.B) {
	a := New("srv", nil)
	sink := a.TapConn("srv:1", "client-1:0")
	f := transport.Frame{Msg: wire.Invalidate{Seq: 0, Objects: nil}, Size: 12, Codec: 250 * time.Nanosecond}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink.Observe(f)
	}
}
