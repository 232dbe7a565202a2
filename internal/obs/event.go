package obs

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// EventType discriminates protocol events. The taxonomy covers every
// state transition an operator needs to follow the consistency protocol
// live: lease grants and expirations, the invalidate/ack round of a write,
// the reconnection protocol, and reachability transitions.
type EventType uint8

// Protocol event types. A span is an event: the last four, and the
// blocked, unblocked, sent and redial events, each end one timed phase of
// an operation (Dur), and carry the causal ids that tie one write's records
// together across processes when tracing is live.
const (
	// EvObjLeaseGrant: an object lease was granted or renewed.
	EvObjLeaseGrant EventType = iota + 1
	// EvVolLeaseGrant: a volume lease was granted or renewed.
	EvVolLeaseGrant
	// EvLeaseExpire: a sweep dropped expired lease records (N = how many).
	EvLeaseExpire
	// EvInvalSent: one Invalidate frame went to a client (server/proxy
	// side): N = objects it named, Object = the first, Dur = the send.
	EvInvalSent
	// EvInvalRecv: an INVALIDATE arrived (client side), before the ack.
	EvInvalRecv
	// EvInvalAcked: an ACK_INVALIDATE resolved a pending invalidation.
	EvInvalAcked
	// EvWriteBlocked: a write began waiting for acknowledgments (N =
	// waiters, Dur = its wait for the per-object write slot).
	EvWriteBlocked
	// EvWriteUnblocked: a write finished its ack round (Dur = the wait,
	// bounded by min(t, t_v); N = clients that never acked).
	EvWriteUnblocked
	// EvEpochBump: a volume epoch advanced (crash recovery).
	EvEpochBump
	// EvReconnect: the MUST_RENEW_ALL reconnection protocol ran.
	EvReconnect
	// EvUnreachable: a client transitioned into the Unreachable set.
	EvUnreachable
	// EvConnect: a client connection was admitted.
	EvConnect
	// EvDisconnect: a client connection ended.
	EvDisconnect
	// EvRedial: a client transparently re-established its connection (Dur
	// = the outage, N = dial attempts).
	EvRedial
	// EvCacheRead: a client served a read from its cache (Version = the
	// version it returned). The read-validity invariant applies.
	EvCacheRead
	// EvWriteApplied: a server committed a write (Version = new version,
	// N = clients that never acked). The write-safety invariant applies.
	EvWriteApplied
	// EvInvalQueued: delayed mode queued an invalidation for an Inactive
	// client instead of sending it.
	EvInvalQueued
	// EvPendingDelivered: queued invalidations were delivered and acked
	// ahead of a volume renewal (N = objects invalidated).
	EvPendingDelivered
	// EvWrite: a server or proxy finished one write, from its arrival to
	// the commit (Dur; N = clients notified). The root of the write's
	// blocked, sent and unblocked records.
	EvWrite
	// EvClientWrite: a client's write RPC (Dur), parent of the server's
	// EvWrite.
	EvClientWrite
	// EvRenewObject: a client's object lease request round trip (Dur).
	EvRenewObject
	// EvRenewVolume: a client's volume lease conversation, including any
	// InvalRenew or MUST_RENEW_ALL rounds (Dur; N = rounds).
	EvRenewVolume
	numEventTypes
)

var eventNames = [...]string{
	EvObjLeaseGrant:    "obj-lease-grant",
	EvVolLeaseGrant:    "vol-lease-grant",
	EvLeaseExpire:      "lease-expire",
	EvInvalSent:        "inval-sent",
	EvInvalRecv:        "inval-recv",
	EvInvalAcked:       "inval-acked",
	EvWriteBlocked:     "write-blocked",
	EvWriteUnblocked:   "write-unblocked",
	EvEpochBump:        "epoch-bump",
	EvReconnect:        "reconnect",
	EvUnreachable:      "unreachable",
	EvConnect:          "connect",
	EvDisconnect:       "disconnect",
	EvRedial:           "redial",
	EvCacheRead:        "cache-read",
	EvWriteApplied:     "write-applied",
	EvInvalQueued:      "inval-queued",
	EvPendingDelivered: "pending-delivered",
	EvWrite:            "write",
	EvClientWrite:      "client-write",
	EvRenewObject:      "renew-object",
	EvRenewVolume:      "renew-volume",
}

// String names the event type.
func (t EventType) String() string {
	if t > 0 && int(t) < len(eventNames) {
		return eventNames[t]
	}
	return fmt.Sprintf("event(%d)", uint8(t))
}

// Event is one protocol event. It is a plain value — no pointers beyond the
// id strings — so constructing one on a hot path costs no allocation; a
// disabled tracer discards it before it escapes.
type Event struct {
	Type EventType
	At   time.Time
	// Node names the emitting component (server, proxy, or client id).
	Node string
	// Client is the peer the event concerns, when any.
	Client core.ClientID
	Object core.ObjectID
	Volume core.VolumeID
	Epoch  core.Epoch
	// N carries a count payload (waiters, expired leases, unacked clients).
	N int
	// Dur carries a duration payload: how long the phase the event ends
	// took (At is its end).
	Dur time.Duration
	// Expire carries the lease expiry for grant events.
	Expire time.Time
	// Version carries the object version for grants, cache reads, and
	// applied writes.
	Version core.Version
	// Trace groups the records of one causal chain (one client write and
	// everything it triggered, across processes); Span is this record's own
	// id when another record can name it as its Parent. A record that starts
	// a trace has Trace == Span. All three are zero unless tracing is live.
	Trace, Span, Parent uint64
}

// String renders a compact single-line form for logs and test failures.
func (e Event) String() string {
	s := fmt.Sprintf("%s %s", e.Node, e.Type)
	if e.Client != "" {
		s += " client=" + string(e.Client)
	}
	if e.Object != "" {
		s += " obj=" + string(e.Object)
	}
	if e.Volume != "" {
		s += " vol=" + string(e.Volume)
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	if e.Dur != 0 {
		s += fmt.Sprintf(" dur=%v", e.Dur)
	}
	if e.Version != 0 {
		s += fmt.Sprintf(" ver=%d", e.Version)
	}
	if e.Trace != 0 {
		s += fmt.Sprintf(" trace=%d", e.Trace)
	}
	if !e.Expire.IsZero() {
		s += " expire=" + e.Expire.Format("15:04:05.000")
	}
	return s
}
