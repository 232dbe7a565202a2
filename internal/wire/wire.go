// Package wire defines the volume-lease protocol's message vocabulary
// (Figures 3 and 4 of the paper) and a compact, dependency-free binary
// encoding with length-prefixed framing.
//
// # Conversations
//
// Requests initiated by a client carry a nonzero Seq; every server message
// belonging to that conversation echoes it, so a client can multiplex RPCs
// with server-initiated pushes (which use Seq 0) on one connection. The
// conversations are:
//
//	object lease:   ReqObjLease ─▶ ObjLease
//	volume lease:   ReqVolLease ─▶ VolLease                                 (clean client)
//	                ReqVolLease ─▶ InvalRenew ─▶ AckInvalidate ─▶ VolLease  (inactive client)
//	                ReqVolLease ─▶ MustRenewAll ─▶ RenewObjLeases ─▶
//	                    InvalRenew ─▶ AckInvalidate ─▶ VolLease             (unreachable client)
//	write:          WriteReq ─▶ WriteReply
//	invalidation:   Invalidate ─▶ AckInvalidate                             (server push, Seq 0)
package wire

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. The numeric values are part of the wire format.
const (
	KindHello Kind = iota + 1
	KindReqObjLease
	KindObjLease
	KindReqVolLease
	KindVolLease
	KindInvalidate
	KindAckInvalidate
	KindMustRenewAll
	KindRenewObjLeases
	KindInvalRenew
	KindWriteReq
	KindWriteReply
	KindError
	kindEnd // sentinel
)

// NumKinds bounds the valid Kind values (exclusive upper bound); exporters
// use it to size per-kind lookup tables.
const NumKinds = int(kindEnd)

var kindNames = [...]string{
	KindHello:          "Hello",
	KindReqObjLease:    "ReqObjLease",
	KindObjLease:       "ObjLease",
	KindReqVolLease:    "ReqVolLease",
	KindVolLease:       "VolLease",
	KindInvalidate:     "Invalidate",
	KindAckInvalidate:  "AckInvalidate",
	KindMustRenewAll:   "MustRenewAll",
	KindRenewObjLeases: "RenewObjLeases",
	KindInvalRenew:     "InvalRenew",
	KindWriteReq:       "WriteReq",
	KindWriteReply:     "WriteReply",
	KindError:          "Error",
}

// String names the kind.
func (k Kind) String() string {
	if k > 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// TraceContext identifies the causal trace a message belongs to. TraceID
// names the end-to-end operation (one client write and everything it
// triggers); SpanID names the sender's span, which receivers use as the
// parent of any spans they open. The zero TraceContext means "untraced" and
// is encoded as an absent field, so peers that predate tracing interoperate:
// their frames simply decode with a zero TraceContext.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// IsZero reports whether the context carries no trace.
func (t TraceContext) IsZero() bool { return t.TraceID == 0 && t.SpanID == 0 }

// Message is any protocol message.
type Message interface {
	// Kind identifies the concrete type.
	Kind() Kind
	// Sequence returns the conversation id (0 for pushes and Hello).
	Sequence() uint64
}

// Hello introduces a client connection; it must be the first message a
// client sends.
type Hello struct {
	Client core.ClientID
}

// Kind implements Message.
func (Hello) Kind() Kind { return KindHello }

// Sequence implements Message.
func (Hello) Sequence() uint64 { return 0 }

// ReqObjLease is the client's REQ_OBJ_LEASE: request (or renew) a lease on
// Object, reporting the cached Version (core.NoVersion if none) so the
// server can piggyback data only when needed.
type ReqObjLease struct {
	Seq     uint64
	Object  core.ObjectID
	Version core.Version
}

// Kind implements Message.
func (ReqObjLease) Kind() Kind { return KindReqObjLease }

// Sequence implements Message.
func (m ReqObjLease) Sequence() uint64 { return m.Seq }

// ObjLease is the server's OBJ_LEASE grant. Data is non-nil iff the
// client's reported version was stale.
type ObjLease struct {
	Seq     uint64
	Object  core.ObjectID
	Version core.Version
	Expire  time.Time
	Data    []byte
	HasData bool
}

// Kind implements Message.
func (ObjLease) Kind() Kind { return KindObjLease }

// Sequence implements Message.
func (m ObjLease) Sequence() uint64 { return m.Seq }

// ReqVolLease is the client's REQ_VOL_LEASE, carrying the last epoch it
// knows (core.NoEpoch on first contact).
type ReqVolLease struct {
	Seq    uint64
	Volume core.VolumeID
	Epoch  core.Epoch
}

// Kind implements Message.
func (ReqVolLease) Kind() Kind { return KindReqVolLease }

// Sequence implements Message.
func (m ReqVolLease) Sequence() uint64 { return m.Seq }

// VolLease is the server's VOL_LEASE grant.
type VolLease struct {
	Seq    uint64
	Volume core.VolumeID
	Expire time.Time
	Epoch  core.Epoch
}

// Kind implements Message.
func (VolLease) Kind() Kind { return KindVolLease }

// Sequence implements Message.
func (m VolLease) Sequence() uint64 { return m.Seq }

// Invalidate is the server's INVALIDATE push (Seq 0 when initiated by a
// write). Trace, when set, links the push to the write that caused it.
// Writes, when set, numbers the write invalidating each object (Writes[i]
// is Objects[i]'s): one push may batch several writes. It is an optional
// section after Trace, absent in frames from peers that predate it.
type Invalidate struct {
	Seq     uint64
	Objects []core.ObjectID
	Trace   TraceContext
	Writes  []core.WriteNum
}

// Kind implements Message.
func (Invalidate) Kind() Kind { return KindInvalidate }

// Sequence implements Message.
func (m Invalidate) Sequence() uint64 { return m.Seq }

// AckInvalidate is the client's ACK_INVALIDATE, echoing the invalidated
// objects (and conversation Seq when part of a volume renewal). Trace
// echoes the Invalidate's context so the ack joins the write's trace, and
// Writes its write numbers, so the ack answers those writes only.
type AckInvalidate struct {
	Seq     uint64
	Volume  core.VolumeID
	Objects []core.ObjectID
	Trace   TraceContext
	Writes  []core.WriteNum
}

// Kind implements Message.
func (AckInvalidate) Kind() Kind { return KindAckInvalidate }

// Sequence implements Message.
func (m AckInvalidate) Sequence() uint64 { return m.Seq }

// MustRenewAll is the server's demand that a returning client enumerate its
// cached objects (reconnection protocol).
type MustRenewAll struct {
	Seq    uint64
	Volume core.VolumeID
	Epoch  core.Epoch
}

// Kind implements Message.
func (MustRenewAll) Kind() Kind { return KindMustRenewAll }

// Sequence implements Message.
func (m MustRenewAll) Sequence() uint64 { return m.Seq }

// RenewObjLeases is the client's RENEW_OBJ_LEASES: every object it caches
// from the volume, with versions.
type RenewObjLeases struct {
	Seq    uint64
	Volume core.VolumeID
	Held   []core.HeldObject
}

// Kind implements Message.
func (RenewObjLeases) Kind() Kind { return KindRenewObjLeases }

// Sequence implements Message.
func (m RenewObjLeases) Sequence() uint64 { return m.Seq }

// LeaseMeta is one renewed lease in an InvalRenew vector.
type LeaseMeta struct {
	Object  core.ObjectID
	Version core.Version
	Expire  time.Time
}

// InvalRenew is the server's combined INVALIDATE+RENEW vector: stale
// objects to drop and fresh leases on current ones. It must be acknowledged
// before the volume lease is granted.
type InvalRenew struct {
	Seq        uint64
	Volume     core.VolumeID
	Invalidate []core.ObjectID
	Renew      []LeaseMeta
}

// Kind implements Message.
func (InvalRenew) Kind() Kind { return KindInvalRenew }

// Sequence implements Message.
func (m InvalRenew) Sequence() uint64 { return m.Seq }

// WriteReq asks the server to modify an object (used by origin/publisher
// clients and tools). Trace, when set, makes the server's write span a
// child of the client's.
type WriteReq struct {
	Seq    uint64
	Object core.ObjectID
	Data   []byte
	Trace  TraceContext
}

// Kind implements Message.
func (WriteReq) Kind() Kind { return KindWriteReq }

// Sequence implements Message.
func (m WriteReq) Sequence() uint64 { return m.Seq }

// WriteReply reports a completed write: the new version and how long the
// server waited for invalidation acknowledgments. Trace echoes the
// request's context.
type WriteReply struct {
	Seq     uint64
	Object  core.ObjectID
	Version core.Version
	Waited  time.Duration
	Trace   TraceContext
}

// Kind implements Message.
func (WriteReply) Kind() Kind { return KindWriteReply }

// Sequence implements Message.
func (m WriteReply) Sequence() uint64 { return m.Seq }

// ErrorCode classifies protocol errors.
type ErrorCode uint8

// Error codes.
const (
	ErrCodeUnknown ErrorCode = iota
	ErrCodeNoSuchObject
	ErrCodeNoSuchVolume
	ErrCodeWriteFenced
	ErrCodeBadRequest
)

// Error reports a failed request.
type Error struct {
	Seq  uint64
	Code ErrorCode
	Msg  string
}

// Kind implements Message.
func (Error) Kind() Kind { return KindError }

// Sequence implements Message.
func (m Error) Sequence() uint64 { return m.Seq }

// Compile-time interface checks.
var (
	_ Message = Hello{}
	_ Message = ReqObjLease{}
	_ Message = ObjLease{}
	_ Message = ReqVolLease{}
	_ Message = VolLease{}
	_ Message = Invalidate{}
	_ Message = AckInvalidate{}
	_ Message = MustRenewAll{}
	_ Message = RenewObjLeases{}
	_ Message = InvalRenew{}
	_ Message = WriteReq{}
	_ Message = WriteReply{}
	_ Message = Error{}
)
