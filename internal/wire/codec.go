package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/core"
)

// MaxFrame bounds a single message on the wire; larger frames are rejected
// before allocation so a corrupt length prefix cannot exhaust memory.
const MaxFrame = 16 << 20

// Codec errors.
var (
	// ErrFrameTooLarge reports a frame exceeding MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncated reports a payload shorter than its fields require.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrUnknownKind reports an unrecognized kind byte.
	ErrUnknownKind = errors.New("wire: unknown message kind")
)

// AppendEncode appends m's encoding (kind byte + body, no frame header) to
// dst and returns the extended slice. When dst has enough capacity the call
// does not allocate, which is what keeps the batched send path at zero
// allocations per message. Only the appended portion is bounded by
// MaxFrame; bytes already in dst don't count against the frame limit.
//
//lint:hotpath
func AppendEncode(dst []byte, m Message) ([]byte, error) {
	e := encoder{buf: dst}
	start := len(dst)
	e.u8(uint8(m.Kind()))
	switch v := m.(type) {
	case Hello:
		e.str(string(v.Client))
	case ReqObjLease:
		e.u64(v.Seq)
		e.str(string(v.Object))
		e.i64(int64(v.Version))
	case ObjLease:
		e.u64(v.Seq)
		e.str(string(v.Object))
		e.i64(int64(v.Version))
		e.time(v.Expire)
		e.bool(v.HasData)
		if v.HasData {
			e.bytes(v.Data)
		}
	case ReqVolLease:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.i64(int64(v.Epoch))
	case VolLease:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.time(v.Expire)
		e.i64(int64(v.Epoch))
	case Invalidate:
		e.u64(v.Seq)
		e.objects(v.Objects)
		e.traceWrites(v.Trace, v.Writes)
	case AckInvalidate:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.objects(v.Objects)
		e.traceWrites(v.Trace, v.Writes)
	case MustRenewAll:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.i64(int64(v.Epoch))
	case RenewObjLeases:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.uv(uint64(len(v.Held)))
		for _, h := range v.Held {
			e.str(string(h.Object))
			e.i64(int64(h.Version))
		}
	case InvalRenew:
		e.u64(v.Seq)
		e.str(string(v.Volume))
		e.objects(v.Invalidate)
		e.uv(uint64(len(v.Renew)))
		for _, r := range v.Renew {
			e.str(string(r.Object))
			e.i64(int64(r.Version))
			e.time(r.Expire)
		}
	case WriteReq:
		e.u64(v.Seq)
		e.str(string(v.Object))
		e.bytes(v.Data)
		e.trace(v.Trace)
	case WriteReply:
		e.u64(v.Seq)
		e.str(string(v.Object))
		e.i64(int64(v.Version))
		e.i64(int64(v.Waited))
		e.trace(v.Trace)
	case Error:
		e.u64(v.Seq)
		e.u8(uint8(v.Code))
		e.str(v.Msg)
	default:
		//lint:allow hotalloc — programmer-error branch (unknown message type); never taken for valid traffic
		return nil, fmt.Errorf("wire: cannot encode %T", m)
	}
	if len(e.buf)-start > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	return e.buf, nil
}

// Decode parses a message previously produced by AppendEncode.
func Decode(buf []byte) (Message, error) {
	d := decoder{buf: buf}
	kind := Kind(d.u8())
	switch kind {
	case KindHello:
		m := Hello{Client: core.ClientID(d.str())}
		return m, d.finish()
	case KindReqObjLease:
		m := ReqObjLease{Seq: d.u64(), Object: core.ObjectID(d.str()), Version: core.Version(d.i64())}
		return m, d.finish()
	case KindObjLease:
		m := ObjLease{Seq: d.u64(), Object: core.ObjectID(d.str()), Version: core.Version(d.i64()), Expire: d.time()}
		m.HasData = d.bool()
		if m.HasData {
			m.Data = d.bytes()
		}
		return m, d.finish()
	case KindReqVolLease:
		m := ReqVolLease{Seq: d.u64(), Volume: core.VolumeID(d.str()), Epoch: core.Epoch(d.i64())}
		return m, d.finish()
	case KindVolLease:
		m := VolLease{Seq: d.u64(), Volume: core.VolumeID(d.str()), Expire: d.time(), Epoch: core.Epoch(d.i64())}
		return m, d.finish()
	case KindInvalidate:
		m := Invalidate{Seq: d.u64(), Objects: d.objects()}
		m.Trace, m.Writes = d.traceWrites(len(m.Objects))
		return m, d.finish()
	case KindAckInvalidate:
		m := AckInvalidate{Seq: d.u64(), Volume: core.VolumeID(d.str()), Objects: d.objects()}
		m.Trace, m.Writes = d.traceWrites(len(m.Objects))
		return m, d.finish()
	case KindMustRenewAll:
		m := MustRenewAll{Seq: d.u64(), Volume: core.VolumeID(d.str()), Epoch: core.Epoch(d.i64())}
		return m, d.finish()
	case KindRenewObjLeases:
		m := RenewObjLeases{Seq: d.u64(), Volume: core.VolumeID(d.str())}
		n := d.uv()
		if n > uint64(len(d.buf)) {
			d.fail()
			return nil, d.finish()
		}
		m.Held = make([]core.HeldObject, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Held = append(m.Held, core.HeldObject{Object: core.ObjectID(d.str()), Version: core.Version(d.i64())})
		}
		return m, d.finish()
	case KindInvalRenew:
		m := InvalRenew{Seq: d.u64(), Volume: core.VolumeID(d.str()), Invalidate: d.objects()}
		n := d.uv()
		if n > uint64(len(d.buf)) {
			d.fail()
			return nil, d.finish()
		}
		m.Renew = make([]LeaseMeta, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Renew = append(m.Renew, LeaseMeta{
				Object:  core.ObjectID(d.str()),
				Version: core.Version(d.i64()),
				Expire:  d.time(),
			})
		}
		return m, d.finish()
	case KindWriteReq:
		m := WriteReq{Seq: d.u64(), Object: core.ObjectID(d.str()), Data: d.bytes()}
		m.Trace = d.trace()
		return m, d.finish()
	case KindWriteReply:
		m := WriteReply{Seq: d.u64(), Object: core.ObjectID(d.str()), Version: core.Version(d.i64()), Waited: time.Duration(d.i64())}
		m.Trace = d.trace()
		return m, d.finish()
	case KindError:
		m := Error{Seq: d.u64(), Code: ErrorCode(d.u8()), Msg: d.str()}
		return m, d.finish()
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(kind))
	}
}

// ReadFrameBuf reads one length-prefixed frame body from r into a pooled
// buffer. The caller owns the returned Buf and must Release it once the
// body has been decoded (Decode copies every variable-length field, so the
// decoded message never aliases the buffer).
//
//lint:hotpath
func ReadFrameBuf(r io.Reader) (*Buf, error) {
	// The header is read into the pooled buffer rather than a local array:
	// a stack [4]byte would escape through the io.Reader interface call and
	// cost an allocation per frame.
	buf := GetBuf()
	if cap(buf.B) < 4 {
		//lint:allow hotalloc — pool refill: runs once per fresh Buf, amortized to zero in steady state
		buf.B = make([]byte, 4, 512)
	}
	buf.B = buf.B[:4]
	if _, err := io.ReadFull(r, buf.B); err != nil {
		buf.Release()
		return nil, err // io.EOF passes through for clean shutdown detection
	}
	n := binary.BigEndian.Uint32(buf.B)
	if n > MaxFrame {
		buf.Release()
		return nil, ErrFrameTooLarge
	}
	if uint32(cap(buf.B)) < n {
		//lint:allow hotalloc — jumbo-frame growth: the grown buffer is retained by the pool, so this amortizes to zero
		buf.B = make([]byte, n)
	} else {
		buf.B = buf.B[:n]
	}
	if _, err := io.ReadFull(r, buf.B); err != nil {
		buf.Release()
		//lint:allow hotalloc — error branch: truncated frame means the peer is gone; the read loop exits
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	return buf, nil
}

// --- pooled frame buffers ---

// Buf is a pooled byte buffer holding one encoded frame body. Ownership is
// explicit and transfers exactly once: whoever holds a Buf either hands it
// to the next stage (which then owns it) or calls Release. Releasing makes
// the backing array eligible for reuse, so neither B nor anything aliasing
// it may be touched afterwards.
type Buf struct {
	B []byte
}

// maxPooledBuf caps the capacity of buffers returned to the pool so a rare
// jumbo frame (up to MaxFrame) doesn't pin megabytes for the steady state
// of sub-kilobyte lease messages.
const maxPooledBuf = 64 << 10

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 512)} }}

// GetBuf returns an empty pooled buffer. Pass it back with Release (or hand
// it to an owner that will) once done.
func GetBuf() *Buf {
	return bufPool.Get().(*Buf)
}

// Release returns the buffer to the pool. Safe on a nil Buf; oversized
// backing arrays are dropped for the garbage collector instead of pooled.
func (b *Buf) Release() {
	if b == nil || cap(b.B) > maxPooledBuf {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}

// --- primitive encoder/decoder ---

type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) uv(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) u64(v uint64) { e.uv(v) }
func (e *encoder) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) bytes(b []byte) {
	e.uv(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// zeroTimeNano is the wire sentinel for the zero time.Time: math.MinInt64
// nanoseconds, the year-1677 edge of the representable range, which no
// lease timestamp can legitimately carry (the encoder clamps a real
// timestamp landing exactly there by one nanosecond). The previous sentinel
// was 0, which collided with UnixNano()==0 — the Unix epoch — so an epoch
// Expire silently round-tripped to the zero time. Compat: frames from
// peers predating this change encode the zero time as 0 and now decode as
// the epoch; every expiry comparison treats both as "expired long ago", so
// mixed-version operation is safe.
const zeroTimeNano = math.MinInt64

// time encodes as varint Unix nanoseconds; the zero time is encoded as the
// zeroTimeNano sentinel and restored exactly.
func (e *encoder) time(t time.Time) {
	if t.IsZero() {
		e.i64(zeroTimeNano)
		return
	}
	n := t.UnixNano()
	if n == zeroTimeNano {
		n++ // reserved for the zero time; clamp by 1ns (same varint width)
	}
	e.i64(n)
}

func (e *encoder) objects(ids []core.ObjectID) {
	e.uv(uint64(len(ids)))
	for _, id := range ids {
		e.str(string(id))
	}
}

// trace encodes a trace context as an optional trailing section: nothing at
// all when the context is zero. Because it is the last field of every
// message that carries one, frames from peers that predate tracing (which
// simply end after the base fields) still decode — see decoder.trace.
func (e *encoder) trace(t TraceContext) {
	if t.IsZero() {
		return
	}
	e.uv(t.TraceID)
	e.uv(t.SpanID)
}

// traceWrites encodes the trailing sections of Invalidate and AckInvalidate:
// the trace section, then the optional write-number section, which is
// absent when there are no numbers. With numbers, the trace section is
// written even when zero, so the decoder can tell the two apart, and the
// numbers follow with their count.
func (e *encoder) traceWrites(t TraceContext, writes []core.WriteNum) {
	if len(writes) == 0 {
		e.trace(t)
		return
	}
	e.uv(t.TraceID)
	e.uv(t.SpanID)
	e.uv(uint64(len(writes)))
	for _, n := range writes {
		e.uv(uint64(n))
	}
}

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrTruncated
	}
	d.buf = nil
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) u64() uint64 { return d.uv() }

func (d *decoder) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// bool accepts only the canonical encodings 0 and 1, so every accepted
// message re-encodes to identical bytes.
func (d *decoder) bool() bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		d.fail()
		return false
	}
}

func (d *decoder) str() string {
	n := d.uv()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return ""
	}
	s := string(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// bytes is the ownership hand-over for payloads on the receive side: the
// one place their bytes are allocated, copied out of the pooled frame. The
// decoded message owns the slice; whoever installs it (a client's cache, a
// server's table copy-in) treats it as immutable from then on.
func (d *decoder) bytes() []byte {
	n := d.uv()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	b := make([]byte, n)
	copy(b, d.buf[:n])
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) time() time.Time {
	v := d.i64()
	if d.err != nil || v == zeroTimeNano {
		return time.Time{}
	}
	return time.Unix(0, v)
}

// trace decodes the optional trailing trace section. No bytes left means
// the sender didn't attach one (old peer or untraced message) and yields
// the zero context. A present-but-zero context is rejected as non-canonical
// so every accepted message re-encodes to identical bytes.
func (d *decoder) trace() TraceContext {
	if d.err != nil || len(d.buf) == 0 {
		return TraceContext{}
	}
	t := TraceContext{TraceID: d.uv(), SpanID: d.uv()}
	if d.err == nil && t.IsZero() {
		d.fail()
	}
	return t
}

// traceWrites decodes what encoder.traceWrites wrote for a message naming n
// objects. A zero trace section is canonical only when numbers follow, and
// the numbers must be one per object.
func (d *decoder) traceWrites(n int) (TraceContext, []core.WriteNum) {
	if d.err != nil || len(d.buf) == 0 {
		return TraceContext{}, nil
	}
	t := TraceContext{TraceID: d.uv(), SpanID: d.uv()}
	if len(d.buf) == 0 {
		if d.err == nil && t.IsZero() {
			d.fail()
		}
		return t, nil
	}
	if count := d.uv(); d.err != nil || count == 0 || count != uint64(n) {
		d.fail()
		return t, nil
	}
	writes := make([]core.WriteNum, n)
	for i := range writes {
		writes[i] = core.WriteNum(d.uv())
	}
	return t, writes
}

func (d *decoder) objects() []core.ObjectID {
	n := d.uv()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return nil
	}
	out := make([]core.ObjectID, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, core.ObjectID(d.str()))
	}
	return out
}

// finish reports any accumulated decode error; trailing bytes are also an
// error (they indicate a framing bug).
func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}
