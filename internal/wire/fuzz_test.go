package wire

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
)

// epochTime builds a timestamp n nanoseconds from the Unix epoch.
func epochTime(n int64) time.Time { return time.Unix(0, n) }

// FuzzDecode checks that no input can panic the decoder, and that anything
// it accepts re-encodes and re-decodes to the same bytes (canonical form).
func FuzzDecode(f *testing.F) {
	seeds := []Message{
		Hello{Client: "c"},
		ReqObjLease{Seq: 1, Object: "o", Version: core.NoVersion},
		ObjLease{Seq: 2, Object: "o", Version: 3, HasData: true, Data: []byte("d")},
		InvalRenew{Seq: 3, Volume: "v", Invalidate: []core.ObjectID{"a"},
			Renew: []LeaseMeta{{Object: "b", Version: 1}}},
		RenewObjLeases{Seq: 4, Volume: "v", Held: []core.HeldObject{{Object: "a", Version: 2}}},
		Error{Seq: 5, Code: ErrCodeBadRequest, Msg: "m"},
		// Trace-context variants: present, absent, and partially-populated,
		// so the fuzzer explores the optional trailing section from both
		// sides of the compatibility boundary.
		WriteReq{Seq: 6, Object: "o", Data: []byte("d"),
			Trace: TraceContext{TraceID: 7, SpanID: 8}},
		WriteReq{Seq: 6, Object: "o", Data: []byte("d")},
		WriteReply{Seq: 6, Object: "o", Version: 1,
			Trace: TraceContext{TraceID: 1 << 33, SpanID: 2}},
		Invalidate{Objects: []core.ObjectID{"a"},
			Trace: TraceContext{TraceID: 9, SpanID: 10}},
		AckInvalidate{Volume: "v", Objects: []core.ObjectID{"a"},
			Trace: TraceContext{SpanID: 11}},
		// Write numbers after a zero trace section.
		Invalidate{Objects: []core.ObjectID{"a", "b"}, Writes: []core.WriteNum{3, 4}},
		// Timestamp edges around the zero-time sentinel: the zero time
		// (encodes as math.MinInt64), the Unix epoch (UnixNano()==0, a
		// legitimate value that must NOT collapse to the zero time), and
		// timestamps adjacent to both.
		ObjLease{Seq: 7, Object: "o", Version: 1},
		ObjLease{Seq: 7, Object: "o", Version: 1, Expire: epochTime(0)},
		VolLease{Seq: 8, Volume: "v", Epoch: 1, Expire: epochTime(1)},
		VolLease{Seq: 8, Volume: "v", Epoch: 1, Expire: epochTime(-1)},
		InvalRenew{Seq: 9, Volume: "v",
			Renew: []LeaseMeta{{Object: "b", Version: 1, Expire: epochTime(0)}}},
	}
	for _, m := range seeds {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// An ack as a peer that predates write numbers sends it: it must decode
	// with none.
	var old encoder
	old.u8(uint8(KindAckInvalidate))
	old.u64(0)
	old.str("v")
	old.objects([]core.ObjectID{"a"})
	if m, err := Decode(old.buf); err != nil || m.(AckInvalidate).Writes != nil {
		f.Fatalf("old-format ack = %#v, %v; want no write numbers", m, err)
	}
	f.Add(old.buf)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Normalization property: anything the decoder accepts re-encodes
		// to a stable canonical form (one decode/encode pass is a fixed
		// point; inputs may use non-minimal varints).
		out1, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", m, err)
		}
		m2, err := Decode(out1)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v", err)
		}
		out2, err := AppendEncode(nil, m2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("encoding not a fixed point:\n out1 %x\n out2 %x", out1, out2)
		}
		if m2.Kind() != m.Kind() || m2.Sequence() != m.Sequence() {
			t.Fatalf("round trip changed identity: %#v vs %#v", m, m2)
		}
	})
}
