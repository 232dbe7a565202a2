package wire

import (
	"testing"
	"time"

	"repro/internal/core"
)

// benchMessages is one representative message per kind, shaped like the
// traffic the server actually sees (short IDs, small payloads, live trace
// contexts on the write path). BenchmarkWirePath and TestDecodeAllocs both
// run over this set.
func benchMessages() []Message {
	expire := time.Unix(1000, 0)
	return []Message{
		Hello{Client: "client-17"},
		ReqObjLease{Seq: 42, Object: "vol-3/obj-100", Version: 7},
		ObjLease{Seq: 42, Object: "vol-3/obj-100", Version: 8, Expire: expire, HasData: true, Data: make([]byte, 256)},
		ReqVolLease{Seq: 43, Volume: "vol-3", Epoch: 5},
		VolLease{Seq: 43, Volume: "vol-3", Expire: expire, Epoch: 5},
		Invalidate{Seq: 0, Objects: []core.ObjectID{"vol-3/obj-100", "vol-3/obj-101"}, Trace: TraceContext{TraceID: 9, SpanID: 4}, Writes: []core.WriteNum{17, 3}},
		AckInvalidate{Seq: 0, Volume: "vol-3", Objects: []core.ObjectID{"vol-3/obj-100", "vol-3/obj-101"}, Trace: TraceContext{TraceID: 9, SpanID: 5}, Writes: []core.WriteNum{17, 3}},
		MustRenewAll{Seq: 44, Volume: "vol-3", Epoch: 5},
		RenewObjLeases{Seq: 44, Volume: "vol-3", Held: []core.HeldObject{
			{Object: "vol-3/obj-100", Version: 7}, {Object: "vol-3/obj-101", Version: 2}, {Object: "vol-3/obj-102", Version: 1},
		}},
		InvalRenew{Seq: 44, Volume: "vol-3",
			Invalidate: []core.ObjectID{"vol-3/obj-100"},
			Renew:      []LeaseMeta{{Object: "vol-3/obj-101", Version: 2, Expire: expire}, {Object: "vol-3/obj-102", Version: 1, Expire: expire}}},
		WriteReq{Seq: 45, Object: "vol-3/obj-100", Data: make([]byte, 256), Trace: TraceContext{TraceID: 9, SpanID: 1}},
		WriteReply{Seq: 45, Object: "vol-3/obj-100", Version: 9, Waited: 12 * time.Millisecond, Trace: TraceContext{TraceID: 9, SpanID: 1}},
		Error{Seq: 46, Code: ErrCodeNoSuchObject, Msg: "no such object"},
	}
}

// BenchmarkWirePath measures the two calls the transport makes per frame,
// for each wire kind: append/ is AppendEncode into a reused buffer (the send
// path; `make bench-wirepath` holds it at 0 allocs/op) and decode/ is Decode
// of the received body (TestDecodeAllocs holds its allocs/op exactly).
func BenchmarkWirePath(b *testing.B) {
	for _, m := range benchMessages() {
		m := m
		b.Run("append/"+m.Kind().String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(Size(m)))
			dst := make([]byte, 0, Size(m))
			for i := 0; i < b.N; i++ {
				enc, err := AppendEncode(dst[:0], m)
				if err != nil {
					b.Fatal(err)
				}
				dst = enc[:0]
			}
		})
		buf, err := AppendEncode(nil, m)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("decode/"+m.Kind().String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireSize pins the sizing pass itself: it must stay far cheaper
// than AppendEncode (no allocation) or per-frame accounting would tax the hot
// path it is supposed to measure.
func BenchmarkWireSize(b *testing.B) {
	msgs := benchMessages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			Size(m)
		}
	}
}
