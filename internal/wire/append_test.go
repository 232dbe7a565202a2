package wire

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
)

// TestAppendEncodeAppends pins the append contract for every message kind:
// dst's existing contents are preserved and what follows them is exactly the
// fresh-buffer encoding. The batcher and the accounting layer both encode
// into reused buffers and rely on it.
func TestAppendEncodeAppends(t *testing.T) {
	msgs := append(benchMessages(),
		// Edge shapes the bench set doesn't cover: zero values, empty
		// collections, zero and epoch timestamps.
		Hello{},
		ObjLease{Seq: 1, Object: "o", Version: 1},                          // zero Expire
		ObjLease{Seq: 1, Object: "o", Version: 1, Expire: time.Unix(0, 0)}, // epoch Expire
		Invalidate{Seq: 2},
		RenewObjLeases{Seq: 3, Volume: "v"},
		InvalRenew{Seq: 4, Volume: "v"},
	)
	prefix := []byte("prefix")
	seen := make(map[Kind]bool)
	for _, m := range msgs {
		seen[m.Kind()] = true
		want, err := AppendEncode(nil, m)
		if err != nil {
			t.Fatalf("AppendEncode(nil, %#v): %v", m, err)
		}
		got, err := AppendEncode(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatalf("AppendEncode(prefix, %#v): %v", m, err)
		}
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s: prefix clobbered: %x", m.Kind(), got)
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: appended portion = %x, want %x", m.Kind(), got[len(prefix):], want)
		}
	}
	for k := Kind(1); k < Kind(NumKinds); k++ {
		if !seen[k] {
			t.Errorf("no test message covers kind %s; extend benchMessages or the edge list", k)
		}
	}
}

// TestEpochTimeRoundTrip covers the sentinel-collision bug: a legitimate
// timestamp of exactly UnixNano()==0 (the Unix epoch) must survive the
// round trip instead of silently decoding as the zero time.
func TestEpochTimeRoundTrip(t *testing.T) {
	epoch := time.Unix(0, 0)
	m := ObjLease{Seq: 1, Object: "o", Version: 1, Expire: epoch}
	got := roundTrip(t, m).(ObjLease)
	if got.Expire.IsZero() {
		t.Fatal("epoch expire decoded as the zero time (sentinel collision)")
	}
	if got.Expire.UnixNano() != 0 {
		t.Errorf("epoch expire decoded as %v", got.Expire)
	}
}

// TestTimeSentinelBytes pins the wire representation: zero time encodes as
// the math.MinInt64 sentinel and nothing else does — a timestamp landing
// exactly on the sentinel is clamped by one nanosecond.
func TestTimeSentinelBytes(t *testing.T) {
	var e encoder
	e.time(time.Time{})
	var zero encoder
	zero.i64(math.MinInt64)
	if !bytes.Equal(e.buf, zero.buf) {
		t.Errorf("zero time = %x, want sentinel %x", e.buf, zero.buf)
	}

	var clamp encoder
	clamp.time(time.Unix(0, math.MinInt64))
	var next encoder
	next.i64(math.MinInt64 + 1)
	if !bytes.Equal(clamp.buf, next.buf) {
		t.Errorf("sentinel-valued timestamp = %x, want clamped %x", clamp.buf, next.buf)
	}
}

// TestTimeRoundTripProperty is the quick-check property: any representable
// timestamp round-trips exactly, and the zero time stays distinguishable
// from all of them (modulo the documented 1ns clamp at the sentinel).
func TestTimeRoundTripProperty(t *testing.T) {
	prop := func(nanos int64) bool {
		in := time.Unix(0, nanos)
		if in.IsZero() {
			return true // not representable as a non-zero time
		}
		m := VolLease{Seq: 1, Volume: "v", Expire: in, Epoch: 1}
		buf, err := AppendEncode(nil, m)
		if err != nil {
			return false
		}
		got, err := Decode(buf)
		if err != nil {
			return false
		}
		out := got.(VolLease).Expire
		if nanos == math.MinInt64 {
			return out.UnixNano() == nanos+1 // clamped off the sentinel
		}
		return !out.IsZero() && out.UnixNano() == nanos
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	// The generator rarely hits the exact edges; check them directly.
	for _, nanos := range []int64{0, 1, -1, math.MinInt64, math.MinInt64 + 1, math.MaxInt64} {
		if !prop(nanos) {
			t.Errorf("property fails at nanos=%d", nanos)
		}
	}
}

// TestReadFrameBufRoundTrip exercises the pooled read path: frame in,
// pooled buffer out, decode, release, and the pool hands the same backing
// array to the next read.
func TestReadFrameBufRoundTrip(t *testing.T) {
	m := Invalidate{Seq: 7, Objects: []core.ObjectID{"a", "b"}}
	var framed []byte
	for i := 0; i < 3; i++ {
		framed = appendFrame(t, framed, m)
	}
	r := bytes.NewReader(framed)
	for i := 0; i < 3; i++ {
		buf, err := ReadFrameBuf(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		got, err := Decode(buf.B)
		buf.Release()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		assertEqual(t, got, m)
	}
}

// TestBufReleaseBounds verifies release semantics: nil-safe, and oversized
// buffers are dropped rather than pooled.
func TestBufReleaseBounds(t *testing.T) {
	var nilBuf *Buf
	nilBuf.Release() // must not panic

	big := &Buf{B: make([]byte, maxPooledBuf+1)}
	big.Release()
	if got := GetBuf(); cap(got.B) > maxPooledBuf {
		t.Errorf("oversized buffer (cap %d) re-entered the pool", cap(got.B))
	}
}
