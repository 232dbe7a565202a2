package wire

import (
	"math/bits"
	"time"

	"repro/internal/core"
)

// Size returns the exact encoded length of m in bytes (kind byte + body,
// excluding the 4-byte frame header), without allocating. It mirrors
// AppendEncode field for field so accounting layers can charge byte costs on
// transports that never serialize (the in-memory network passes Message
// values through channels). Unknown message types — which AppendEncode
// rejects — size to 0.
//
// TestSizeMatchesEncode pins Size(m) == len(AppendEncode(nil, m)) for every
// kind.
func Size(m Message) int {
	n := 1 // kind byte
	switch v := m.(type) {
	case Hello:
		n += sizeStr(string(v.Client))
	case ReqObjLease:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Object))
		n += sizeIv(int64(v.Version))
	case ObjLease:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Object))
		n += sizeIv(int64(v.Version))
		n += sizeTime(v.Expire)
		n++ // HasData bool
		if v.HasData {
			n += sizeUv(uint64(len(v.Data))) + len(v.Data)
		}
	case ReqVolLease:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeIv(int64(v.Epoch))
	case VolLease:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeTime(v.Expire)
		n += sizeIv(int64(v.Epoch))
	case Invalidate:
		n += sizeUv(v.Seq)
		n += sizeObjects(v.Objects)
		n += sizeTraceWrites(v.Trace, v.Writes)
	case AckInvalidate:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeObjects(v.Objects)
		n += sizeTraceWrites(v.Trace, v.Writes)
	case MustRenewAll:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeIv(int64(v.Epoch))
	case RenewObjLeases:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeUv(uint64(len(v.Held)))
		for _, h := range v.Held {
			n += sizeStr(string(h.Object))
			n += sizeIv(int64(h.Version))
		}
	case InvalRenew:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Volume))
		n += sizeObjects(v.Invalidate)
		n += sizeUv(uint64(len(v.Renew)))
		for _, r := range v.Renew {
			n += sizeStr(string(r.Object))
			n += sizeIv(int64(r.Version))
			n += sizeTime(r.Expire)
		}
	case WriteReq:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Object))
		n += sizeUv(uint64(len(v.Data))) + len(v.Data)
		n += sizeTrace(v.Trace)
	case WriteReply:
		n += sizeUv(v.Seq)
		n += sizeStr(string(v.Object))
		n += sizeIv(int64(v.Version))
		n += sizeIv(int64(v.Waited))
		n += sizeTrace(v.Trace)
	case Error:
		n += sizeUv(v.Seq)
		n++ // code byte
		n += sizeStr(v.Msg)
	default:
		return 0
	}
	return n
}

// sizeUv is the byte length of binary.AppendUvarint(nil, v): 7 payload bits
// per byte, at least one byte.
func sizeUv(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// sizeIv is the byte length of binary.AppendVarint(nil, v), which zig-zag
// maps the signed value before uvarint encoding.
func sizeIv(v int64) int {
	return sizeUv(uint64(v)<<1 ^ uint64(v>>63))
}

func sizeStr(s string) int {
	return sizeUv(uint64(len(s))) + len(s)
}

// sizeTime mirrors encoder.time: the zero time encodes as the zeroTimeNano
// sentinel, everything else as varint UnixNano. The clamp for a timestamp
// landing exactly on the sentinel changes the value by 1ns, not the varint
// width, so sizing by the raw UnixNano stays exact.
func sizeTime(t time.Time) int {
	if t.IsZero() {
		return sizeIv(zeroTimeNano)
	}
	return sizeIv(t.UnixNano())
}

func sizeObjects(ids []core.ObjectID) int {
	n := sizeUv(uint64(len(ids)))
	for _, id := range ids {
		n += sizeStr(string(id))
	}
	return n
}

// sizeTraceWrites mirrors encoder.traceWrites.
func sizeTraceWrites(t TraceContext, writes []core.WriteNum) int {
	if len(writes) == 0 {
		return sizeTrace(t)
	}
	n := sizeUv(t.TraceID) + sizeUv(t.SpanID) + sizeUv(uint64(len(writes)))
	for _, w := range writes {
		n += sizeUv(uint64(w))
	}
	return n
}

// sizeTrace mirrors encoder.trace: a zero context is absent from the wire.
func sizeTrace(t TraceContext) int {
	if t.IsZero() {
		return 0
	}
	return sizeUv(t.TraceID) + sizeUv(t.SpanID)
}
