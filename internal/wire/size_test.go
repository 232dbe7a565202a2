package wire

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

// sizeSamples covers every kind plus the encoding edge cases Size must
// mirror: zero times, absent traces, empty collections, negative varints,
// and large values that spill into multi-byte varints.
func sizeSamples() []Message {
	return []Message{
		Hello{Client: "client-7"},
		Hello{},
		ReqObjLease{Seq: 42, Object: "obj/1", Version: core.NoVersion},
		ReqObjLease{Seq: 1 << 60, Object: "obj/1", Version: 1 << 40},
		ObjLease{Seq: 42, Object: "obj/1", Version: 3, Expire: ts(100), HasData: true, Data: []byte("payload")},
		ObjLease{Seq: 43, Object: "obj/1", Version: 3, Expire: ts(100)},
		ObjLease{Seq: 1, Object: "o", Version: 1, HasData: true, Data: []byte{}},
		ObjLease{Seq: 1, Object: "o", Version: 1}, // zero time
		ReqVolLease{Seq: 1, Volume: "vol", Epoch: core.NoEpoch},
		VolLease{Seq: 1, Volume: "vol", Expire: ts(10), Epoch: 5},
		Invalidate{Objects: []core.ObjectID{"a", "b"}},
		Invalidate{Seq: 1},
		Invalidate{Seq: 2, Objects: []core.ObjectID{"a"}, Trace: TraceContext{TraceID: 7, SpanID: 9}},
		AckInvalidate{Seq: 9, Volume: "vol", Objects: []core.ObjectID{"a"}},
		AckInvalidate{Seq: 9, Volume: "vol", Trace: TraceContext{TraceID: 1 << 50, SpanID: 3}},
		MustRenewAll{Seq: 2, Volume: "vol", Epoch: 6},
		RenewObjLeases{Seq: 2, Volume: "vol", Held: []core.HeldObject{{Object: "a", Version: 1}, {Object: "b", Version: 2}}},
		RenewObjLeases{Seq: 1, Volume: "v"},
		InvalRenew{Seq: 2, Volume: "vol",
			Invalidate: []core.ObjectID{"a"},
			Renew:      []LeaseMeta{{Object: "b", Version: 2, Expire: ts(50)}, {Object: "c", Version: 3}}},
		InvalRenew{Seq: 1, Volume: "v"},
		WriteReq{Seq: 7, Object: "obj", Data: []byte{0, 1, 2, 255}},
		WriteReq{Seq: 7, Object: "obj", Data: []byte{}, Trace: TraceContext{TraceID: 4, SpanID: 5}},
		WriteReply{Seq: 7, Object: "obj", Version: 9, Waited: 1500 * time.Millisecond},
		WriteReply{Seq: 7, Object: "obj", Version: 9, Waited: -time.Second, Trace: TraceContext{TraceID: 4, SpanID: 6}},
		Error{Seq: 3, Code: ErrCodeNoSuchObject, Msg: "obj not found"},
		Error{},
	}
}

func TestSizeMatchesEncode(t *testing.T) {
	for _, m := range sizeSamples() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %#v): %v", m, err)
		}
		if got := Size(m); got != len(buf) {
			t.Errorf("Size(%#v) = %d, want %d (encoded length)", m, got, len(buf))
		}
	}
}

func TestSizeMatchesEncodeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randStr := func(n int) string {
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	for i := 0; i < 500; i++ {
		var m Message
		switch rng.Intn(5) {
		case 0:
			m = ReqObjLease{Seq: rng.Uint64(), Object: core.ObjectID(randStr(40)), Version: core.Version(rng.Int63() - rng.Int63())}
		case 1:
			m = ObjLease{Seq: rng.Uint64(), Object: core.ObjectID(randStr(40)), Version: core.Version(rng.Int63()),
				Expire: time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)), HasData: rng.Intn(2) == 1, Data: []byte(randStr(200))}
		case 2:
			objs := make([]core.ObjectID, rng.Intn(5))
			for j := range objs {
				objs[j] = core.ObjectID(randStr(20))
			}
			m = Invalidate{Seq: rng.Uint64(), Objects: objs, Trace: TraceContext{TraceID: rng.Uint64(), SpanID: rng.Uint64()}}
		case 3:
			held := make([]core.HeldObject, rng.Intn(6))
			for j := range held {
				held[j] = core.HeldObject{Object: core.ObjectID(randStr(20)), Version: core.Version(rng.Int63())}
			}
			m = RenewObjLeases{Seq: rng.Uint64(), Volume: core.VolumeID(randStr(16)), Held: held}
		default:
			m = WriteReply{Seq: rng.Uint64(), Object: core.ObjectID(randStr(30)), Version: core.Version(rng.Int63()),
				Waited: time.Duration(rng.Int63() - rng.Int63()), Trace: TraceContext{TraceID: rng.Uint64()}}
		}
		// ObjLease with HasData=false must not count Data; clear it so the
		// fixture stays canonical.
		if v, ok := m.(ObjLease); ok && !v.HasData {
			v.Data = nil
			m = v
		}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %#v): %v", m, err)
		}
		if got := Size(m); got != len(buf) {
			t.Fatalf("Size(%#v) = %d, want %d", m, got, len(buf))
		}
	}
}

func TestSizeUnknownType(t *testing.T) {
	if got := Size(fakeMsg{}); got != 0 {
		t.Errorf("Size(bogus) = %d, want 0", got)
	}
}

func TestSizeAllocationFree(t *testing.T) {
	msgs := sizeSamples()
	allocs := testing.AllocsPerRun(100, func() {
		for _, m := range msgs {
			Size(m)
		}
	})
	if allocs != 0 {
		t.Errorf("Size allocates %.1f times per sweep, want 0", allocs)
	}
}
