package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

func ts(sec int64) time.Time { return time.Unix(sec, 500).UTC() }

// roundTrip encodes and decodes m, failing on error.
func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatalf("AppendEncode(nil, %+v): %v", m, err)
	}
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%+v): %v", m, err)
	}
	return got
}

// timesEqual compares two messages for semantic equality, normalizing
// time.Time location differences.
func assertEqual(t *testing.T, got, want Message) {
	t.Helper()
	g, w := normalize(got), normalize(want)
	if !reflect.DeepEqual(g, w) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", g, w)
	}
}

// normalize rewrites time fields to UTC so DeepEqual ignores locations.
func normalize(m Message) Message {
	switch v := m.(type) {
	case ObjLease:
		v.Expire = v.Expire.UTC()
		return v
	case VolLease:
		v.Expire = v.Expire.UTC()
		return v
	case InvalRenew:
		for i := range v.Renew {
			v.Renew[i].Expire = v.Renew[i].Expire.UTC()
		}
		return v
	default:
		return m
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []Message{
		Hello{Client: "client-7"},
		ReqObjLease{Seq: 42, Object: "obj/1", Version: core.NoVersion},
		ObjLease{Seq: 42, Object: "obj/1", Version: 3, Expire: ts(100), HasData: true, Data: []byte("payload")},
		ObjLease{Seq: 43, Object: "obj/1", Version: 3, Expire: ts(100)},
		ReqVolLease{Seq: 1, Volume: "vol", Epoch: core.NoEpoch},
		VolLease{Seq: 1, Volume: "vol", Expire: ts(10), Epoch: 5},
		Invalidate{Objects: []core.ObjectID{"a", "b"}},
		AckInvalidate{Seq: 9, Volume: "vol", Objects: []core.ObjectID{"a"}},
		MustRenewAll{Seq: 2, Volume: "vol", Epoch: 6},
		RenewObjLeases{Seq: 2, Volume: "vol", Held: []core.HeldObject{{Object: "a", Version: 1}, {Object: "b", Version: 2}}},
		InvalRenew{Seq: 2, Volume: "vol",
			Invalidate: []core.ObjectID{"a"},
			Renew:      []LeaseMeta{{Object: "b", Version: 2, Expire: ts(50)}}},
		WriteReq{Seq: 7, Object: "obj", Data: []byte{0, 1, 2, 255}},
		WriteReply{Seq: 7, Object: "obj", Version: 9, Waited: 1500 * time.Millisecond},
		Error{Seq: 3, Code: ErrCodeNoSuchObject, Msg: "obj not found"},
	}
	for _, m := range msgs {
		t.Run(m.Kind().String(), func(t *testing.T) {
			assertEqual(t, roundTrip(t, m), m)
		})
	}
}

// TestRoundTripEveryField sets every exported field of one message per kind
// to a non-zero value by reflection — HasData true, so Data travels — and
// requires Decode to give each one back. A field added to a message, or a
// kind added to the name table, is covered without editing the test; one
// that either codec path forgets fails here.
func TestRoundTripEveryField(t *testing.T) {
	byKind := map[Kind]Message{}
	for _, m := range benchMessages() {
		byKind[m.Kind()] = m
	}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		m, ok := byKind[k]
		if !ok {
			t.Errorf("benchMessages has no %s message", k)
			continue
		}
		t.Run(k.String(), func(t *testing.T) {
			v := reflect.New(reflect.TypeOf(m)).Elem()
			n := 0
			fillFields(t, v, &n)
			want := v.Interface().(Message)
			compareFields(t, k.String(), reflect.ValueOf(roundTrip(t, want)), v)
		})
	}
}

// fillFields sets every exported field under v to a non-zero value, a
// different one per field (*n counts them).
func fillFields(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("f%d", *n))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillFields(t, v.Index(i), n)
		}
	case reflect.Struct:
		if v.Type() == reflect.TypeOf(time.Time{}) {
			v.Set(reflect.ValueOf(time.Unix(int64(1000+*n), 500)))
			return
		}
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillFields(t, v.Field(i), n)
			}
		}
	default:
		t.Fatalf("fillFields: no rule for a %s field", v.Type())
	}
}

// compareFields reports every field under want that got does not carry,
// comparing times with Equal.
func compareFields(t *testing.T, path string, got, want reflect.Value) {
	t.Helper()
	switch {
	case want.Type() == reflect.TypeOf(time.Time{}):
		if !got.Interface().(time.Time).Equal(want.Interface().(time.Time)) {
			t.Errorf("%s = %v, want %v", path, got, want)
		}
	case want.Kind() == reflect.Struct:
		for i := 0; i < want.NumField(); i++ {
			if want.Type().Field(i).IsExported() {
				compareFields(t, path+"."+want.Type().Field(i).Name, got.Field(i), want.Field(i))
			}
		}
	case want.Kind() == reflect.Slice:
		if got.Len() != want.Len() {
			t.Errorf("%s has %d elements, want %d", path, got.Len(), want.Len())
			return
		}
		for i := 0; i < want.Len(); i++ {
			compareFields(t, fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i))
		}
	case !reflect.DeepEqual(got.Interface(), want.Interface()):
		t.Errorf("%s = %v, want %v", path, got, want)
	}
}

func TestRoundTripEmptyCollections(t *testing.T) {
	msgs := []Message{
		Invalidate{Seq: 1},
		AckInvalidate{Seq: 1, Volume: "v"},
		RenewObjLeases{Seq: 1, Volume: "v"},
		InvalRenew{Seq: 1, Volume: "v"},
		WriteReq{Seq: 1, Object: "o", Data: []byte{}},
		ObjLease{Seq: 1, Object: "o", Version: 1, Expire: time.Time{}}, // zero time
	}
	for _, m := range msgs {
		t.Run(m.Kind().String(), func(t *testing.T) {
			got := roundTrip(t, m)
			if got.Kind() != m.Kind() || got.Sequence() != m.Sequence() {
				t.Errorf("got %#v, want %#v", got, m)
			}
		})
	}
}

func TestZeroTimeRoundTrip(t *testing.T) {
	m := ObjLease{Seq: 1, Object: "o", Version: 1}
	got := roundTrip(t, m).(ObjLease)
	if !got.Expire.IsZero() {
		t.Errorf("zero time decoded as %v", got.Expire)
	}
}

func TestSequenceAccessors(t *testing.T) {
	if (Hello{}).Sequence() != 0 {
		t.Error("Hello sequence nonzero")
	}
	if (ReqObjLease{Seq: 5}).Sequence() != 5 {
		t.Error("ReqObjLease sequence wrong")
	}
}

func TestKindString(t *testing.T) {
	if KindObjLease.String() != "ObjLease" {
		t.Errorf("KindObjLease = %q", KindObjLease.String())
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("unknown kind = %q", Kind(200).String())
	}
}

func TestDecodeUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{200}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("err = %v, want ErrUnknownKind", err)
	}
	if _, err := Decode([]byte{byte(kindEnd)}); !errors.Is(err, ErrUnknownKind) {
		t.Errorf("sentinel kind: %v", err)
	}
}

func TestDecodeTruncatedNeverPanics(t *testing.T) {
	// Every prefix of every valid encoding must decode to an error, not a
	// panic or a silent success.
	msgs := []Message{
		ObjLease{Seq: 42, Object: "obj/1", Version: 3, Expire: ts(100), HasData: true, Data: []byte("payload")},
		InvalRenew{Seq: 2, Volume: "vol", Invalidate: []core.ObjectID{"a"},
			Renew: []LeaseMeta{{Object: "b", Version: 2, Expire: ts(50)}}},
		RenewObjLeases{Seq: 2, Volume: "vol", Held: []core.HeldObject{{Object: "a", Version: 1}}},
		WriteReq{Seq: 7, Object: "obj", Data: []byte("xyz")},
	}
	for _, m := range msgs {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(buf); cut++ {
			if _, err := Decode(buf[:cut]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded without error", m.Kind(), cut)
			}
		}
	}
}

func TestDecodeTrailingBytes(t *testing.T) {
	buf, _ := AppendEncode(nil, Hello{Client: "c"})
	buf = append(buf, 0xFF)
	if _, err := Decode(buf); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		_, _ = Decode(buf) // must not panic
	}
}

func TestQuickObjLeaseRoundTrip(t *testing.T) {
	f := func(seq uint64, obj string, ver int64, nanos int64, data []byte) bool {
		if nanos == 0 {
			nanos = 1
		}
		m := ObjLease{Seq: seq, Object: core.ObjectID(obj), Version: core.Version(ver),
			Expire: time.Unix(0, nanos), HasData: true, Data: data}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		g := got.(ObjLease)
		return g.Seq == m.Seq && g.Object == m.Object && g.Version == m.Version &&
			g.Expire.Equal(m.Expire) && bytes.Equal(g.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickInvalidateRoundTrip(t *testing.T) {
	f := func(seq uint64, names []string) bool {
		m := Invalidate{Seq: seq}
		for _, n := range names {
			m.Objects = append(m.Objects, core.ObjectID(n))
		}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		g := got.(Invalidate)
		if g.Seq != m.Seq || len(g.Objects) != len(m.Objects) {
			return false
		}
		for i := range g.Objects {
			if g.Objects[i] != m.Objects[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWriteReqRoundTrip(t *testing.T) {
	f := func(seq uint64, obj string, data []byte) bool {
		m := WriteReq{Seq: seq, Object: core.ObjectID(obj), Data: data}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		g := got.(WriteReq)
		return g.Seq == m.Seq && g.Object == m.Object && bytes.Equal(g.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceContextRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0xDEADBEEF12345678, SpanID: 42}
	msgs := []Message{
		WriteReq{Seq: 7, Object: "obj", Data: []byte("d"), Trace: tc},
		WriteReply{Seq: 7, Object: "obj", Version: 9, Waited: time.Millisecond, Trace: tc},
		Invalidate{Objects: []core.ObjectID{"a", "b"}, Trace: tc},
		AckInvalidate{Seq: 0, Volume: "v", Objects: []core.ObjectID{"a"}, Trace: tc},
		// SpanID-only contexts are legal (trace id picked up downstream).
		Invalidate{Objects: []core.ObjectID{"a"}, Trace: TraceContext{SpanID: 3}},
		WriteReq{Seq: 1, Object: "o", Data: []byte{}, Trace: TraceContext{TraceID: 1}},
	}
	for _, m := range msgs {
		t.Run(m.Kind().String(), func(t *testing.T) {
			assertEqual(t, roundTrip(t, m), m)
		})
	}
}

// TestTraceAbsentCompat pins the backward-compatibility contract: a zero
// trace context adds no bytes, so the encoding is identical to what a peer
// that predates tracing produces, and such old frames decode to a zero
// Trace field.
func TestTraceAbsentCompat(t *testing.T) {
	// Byte-for-byte: the traced struct with a zero context encodes exactly
	// like the pre-trace wire format (reconstructed by hand here).
	var e encoder
	e.u8(uint8(KindWriteReq))
	e.u64(7)
	e.str("obj")
	e.bytes([]byte("data"))
	oldFrame := e.buf

	newFrame, err := AppendEncode(nil, WriteReq{Seq: 7, Object: "obj", Data: []byte("data")})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(oldFrame, newFrame) {
		t.Fatalf("zero-trace encoding diverged from old format:\n old %x\n new %x", oldFrame, newFrame)
	}

	// And the old frame decodes with a zero Trace.
	m, err := Decode(oldFrame)
	if err != nil {
		t.Fatalf("old frame rejected: %v", err)
	}
	if got := m.(WriteReq).Trace; !got.IsZero() {
		t.Errorf("old frame decoded with trace %+v", got)
	}

	// Same for a push-style Invalidate, whose Objects list is the last base
	// field before the optional trace.
	var e2 encoder
	e2.u8(uint8(KindInvalidate))
	e2.u64(0)
	e2.objects([]core.ObjectID{"x", "y"})
	m2, err := Decode(e2.buf)
	if err != nil {
		t.Fatalf("old Invalidate rejected: %v", err)
	}
	inv := m2.(Invalidate)
	if !inv.Trace.IsZero() || len(inv.Objects) != 2 {
		t.Errorf("old Invalidate decoded as %+v", inv)
	}
}

// TestWriteNumbersSection: the write numbers of Invalidate and AckInvalidate
// follow the trace section, which is then written even when zero; frames
// without numbers are the old format and decode to none. A section whose
// count is zero or differs from the object count is rejected.
func TestWriteNumbersSection(t *testing.T) {
	objs := []core.ObjectID{"a", "b"}
	for _, m := range []Message{
		Invalidate{Objects: objs, Writes: []core.WriteNum{1, 1 << 40}},
		Invalidate{Objects: objs, Writes: []core.WriteNum{5, 6}, Trace: TraceContext{TraceID: 7, SpanID: 8}},
		AckInvalidate{Volume: "v", Objects: objs, Writes: []core.WriteNum{5, 6}},
	} {
		if got := roundTrip(t, m); !reflect.DeepEqual(got, m) {
			t.Errorf("round trip %#v = %#v", m, got)
		}
	}
	old, err := AppendEncode(nil, Invalidate{Objects: objs, Trace: TraceContext{TraceID: 7, SpanID: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := Decode(old); err != nil || m.(Invalidate).Writes != nil {
		t.Errorf("frame without numbers = %#v, %v; want no numbers", m, err)
	}
	for name, tail := range map[string][]byte{
		"zero count":     {0, 0, 0},
		"short count":    {0, 0, 1, 5},
		"zero trace":     {0, 0},
		"truncated list": {0, 0, 2, 5},
	} {
		var e encoder
		e.u8(uint8(KindInvalidate))
		e.u64(0)
		e.objects(objs)
		if _, err := Decode(append(e.buf, tail...)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestTraceNonCanonicalRejected: an explicitly-present all-zero trace
// section does not survive a re-encode (it would encode as absent), so the
// decoder rejects it to keep accepted messages canonical.
func TestTraceNonCanonicalRejected(t *testing.T) {
	buf, err := AppendEncode(nil, WriteReq{Seq: 1, Object: "o", Data: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0, 0) // TraceID=0, SpanID=0, explicitly present
	if _, err := Decode(buf); err == nil {
		t.Error("present-but-zero trace context accepted")
	}
}

// TestTraceTruncatedRejected: cutting inside the trace section must error.
// Cutting exactly at the base/trace boundary is legal by design — it is an
// old-format frame — so those cuts are skipped.
func TestTraceTruncatedRejected(t *testing.T) {
	base, err := AppendEncode(nil, WriteReq{Seq: 9, Object: "obj", Data: []byte("d")})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := AppendEncode(nil, WriteReq{Seq: 9, Object: "obj", Data: []byte("d"),
		Trace: TraceContext{TraceID: 1 << 40, SpanID: 1 << 40}})
	if err != nil {
		t.Fatal(err)
	}
	if len(traced) <= len(base) {
		t.Fatalf("trace added no bytes: base %d traced %d", len(base), len(traced))
	}
	for cut := len(base) + 1; cut < len(traced); cut++ {
		if _, err := Decode(traced[:cut]); err == nil {
			t.Errorf("frame cut mid-trace at %d accepted", cut)
		}
	}
}

// TestDecodeAllocs pins what Decode allocates for each kind in
// benchMessages(): the boxed Message plus one copy per string, payload and ID
// slice the frame carries. The counts are exact, not a ceiling: a Decode that
// stops copying a field lowers its row here in the same change. They are the
// same under -race, so the test does not skip there.
func TestDecodeAllocs(t *testing.T) {
	want := map[Kind]float64{
		KindHello:          2,
		KindReqObjLease:    2,
		KindObjLease:       3,
		KindReqVolLease:    2,
		KindVolLease:       2,
		KindInvalidate:     5,
		KindAckInvalidate:  6,
		KindMustRenewAll:   2,
		KindRenewObjLeases: 6,
		KindInvalRenew:     7,
		KindWriteReq:       3,
		KindWriteReply:     2,
		KindError:          2,
	}
	for _, m := range benchMessages() {
		buf, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %+v): %v", m, err)
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := Decode(buf); err != nil {
				t.Fatal(err)
			}
		})
		if got != want[m.Kind()] {
			t.Errorf("Decode(%v): %v allocs/op, want %v", m.Kind(), got, want[m.Kind()])
		}
		delete(want, m.Kind())
	}
	for k := range want {
		t.Errorf("Decode(%v): no message of this kind in benchMessages()", k)
	}
}

// appendFrame appends m to dst framed as the transport frames it: a 4-byte
// big-endian length, then AppendEncode's bytes.
func appendFrame(t *testing.T, dst []byte, m Message) []byte {
	t.Helper()
	body, err := AppendEncode(nil, m)
	if err != nil {
		t.Fatalf("AppendEncode(nil, %+v): %v", m, err)
	}
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(body))), body...)
}

func TestFrameRoundTrip(t *testing.T) {
	msgs := []Message{
		Hello{Client: "c"},
		ReqVolLease{Seq: 1, Volume: "v", Epoch: 0},
		WriteReq{Seq: 2, Object: "o", Data: []byte("hello")},
	}
	var framed []byte
	for _, m := range msgs {
		framed = appendFrame(t, framed, m)
	}
	r := bytes.NewReader(framed)
	for _, want := range msgs {
		buf, err := ReadFrameBuf(r)
		if err != nil {
			t.Fatalf("ReadFrameBuf: %v", err)
		}
		got, err := Decode(buf.B)
		buf.Release()
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		assertEqual(t, got, want)
	}
	if _, err := ReadFrameBuf(r); err != io.EOF {
		t.Errorf("draining read = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	r := bytes.NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrameBuf(r); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	r := bytes.NewReader([]byte{0, 0, 0, 10, 1, 2}) // claims 10 bytes, has 2
	if _, err := ReadFrameBuf(r); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := AppendEncode(nil, fakeMsg{}); err == nil {
		t.Error("unknown message type encoded")
	}
}

type fakeMsg struct{}

func (fakeMsg) Kind() Kind       { return Kind(99) }
func (fakeMsg) Sequence() uint64 { return 0 }
