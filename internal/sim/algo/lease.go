package algo

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Lease implements Gray & Cheriton's object leases (Section 2.4): a client
// may read its cached copy while it holds an unexpired lease; the server
// invalidates all unexpired lease holders before a write and, under
// failures, need wait at most the lease timeout t.
type Lease struct {
	base
	t      time.Duration
	leases *leaseSet
}

var _ sim.Algorithm = (*Lease)(nil)

// NewLease constructs Lease with object timeout t.
func NewLease(env *sim.Env, t time.Duration) *Lease {
	return &Lease{base: newBase(env), t: t, leases: newLeaseSet(env)}
}

// Name implements sim.Algorithm.
func (l *Lease) Name() string { return fmt.Sprintf("Lease(%s)", seconds(l.t)) }

// HandleRead implements sim.Algorithm.
func (l *Lease) HandleRead(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	ck := copyKey{e.Client, k}
	if l.leases.valid(now, k, e.Client) && l.hasCopy(ck) {
		// A valid lease guarantees the copy is current.
		l.env.Rec.Read(!l.hasCurrentCopy(ck))
		return
	}
	l.msg(now, e.Server, metrics.MsgObjLeaseReq, sim.CtrlBytes)
	l.fetchResponse(now, ck, e.Size, metrics.MsgObjLease)
	l.leases.grant(now, k, e.Client, l.t)
	l.env.Rec.Read(false)
}

// HandleWrite implements sim.Algorithm.
func (l *Lease) HandleWrite(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	for _, client := range l.leases.holders(now, k) {
		l.msg(now, e.Server, metrics.MsgInvalidate, sim.CtrlBytes)
		l.msg(now, e.Server, metrics.MsgAckInvalidate, sim.CtrlBytes)
		l.leases.revoke(now, k, client)
		l.dropCopy(copyKey{client, k})
	}
	l.bump(k)
	l.env.Rec.Write(0)
}
