package algo

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Audit emission helpers. Every algorithm mirrors its protocol actions into
// the obs event stream when the engine has an observer attached
// (sim.Env.Emit), so the online auditor (internal/audit) can check the same
// invariants against the simulation that it checks against the live stack.
// With no observer attached each helper costs one boolean check.

// simObjID namespaces a simulated object id globally: traces reuse object
// names across servers, while the auditor keys objects in one id space.
func simObjID(k objKey) core.ObjectID {
	return core.ObjectID(k.server + "/" + k.object)
}

// auditObjGrant reports an object-lease grant carrying the version the
// client caches after the grant.
func (b *base) auditObjGrant(now time.Time, ck copyKey, expire time.Time) {
	if !b.env.Auditing() {
		return
	}
	b.env.Emit(obs.Event{Type: obs.EvObjLeaseGrant, Client: core.ClientID(ck.client),
		Object: simObjID(ck.obj), Version: core.Version(b.copies[ck]),
		Expire: expire, At: now})
}

// auditCacheRead reports a read served from cache without contacting the
// server, with the version actually returned.
func (b *base) auditCacheRead(now time.Time, ck copyKey) {
	if !b.env.Auditing() {
		return
	}
	b.env.Emit(obs.Event{Type: obs.EvCacheRead, Client: core.ClientID(ck.client),
		Object: simObjID(ck.obj), Version: core.Version(b.copies[ck]), At: now})
}

// auditInvalAck reports an eagerly delivered (and, in the failure-free
// simulation, immediately acknowledged) invalidation.
func (b *base) auditInvalAck(now time.Time, ck copyKey) {
	if !b.env.Auditing() {
		return
	}
	b.env.Emit(obs.Event{Type: obs.EvInvalAcked, Client: core.ClientID(ck.client),
		Object: simObjID(ck.obj), At: now})
}

// auditWrite reports a committed write: the new authoritative version and
// how many holders were invalidated. Call after bump.
func (b *base) auditWrite(now time.Time, k objKey, invalidated int) {
	if !b.env.Auditing() {
		return
	}
	b.env.Emit(obs.Event{Type: obs.EvWriteApplied, Object: simObjID(k),
		Version: core.Version(b.vers[k]), N: invalidated, At: now})
}
