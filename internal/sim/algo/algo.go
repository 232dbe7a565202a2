// Package algo implements the six cache-consistency algorithms the paper
// evaluates (Table 1): Poll Each Read, Poll(t), Callback, Lease(t),
// Volume Leases(tv,t), and Volume Leases with Delayed Invalidations
// (tv,t,d), all against the sim engine. The last two are not written here:
// Volume (protocol.go) drives the shipped protocol, core.Table and
// core.Holder, so the figures measure the rules leased and leaseproxy run.
//
// Shared modeling decisions (applied identically to every algorithm so that
// relative comparisons are meaningful):
//
//   - Every protocol exchange counts both directions: a renewal is a request
//     message plus a grant message; an invalidation is an invalidation
//     message plus an acknowledgment.
//   - A response carries the object payload only when the client's cached
//     copy is missing or out of date; otherwise it is a small control
//     message. Control messages cost sim.CtrlBytes, payloads add the object
//     size.
//   - Server consistency state is charged at sim.LeaseRecordBytes
//     (core.RecordBytes) per lease, callback record, queued invalidation, or
//     reachability-set entry, per Section 5.2.
//   - The simulation is failure-free (like the paper's), so invalidation
//     acknowledgments arrive immediately and server writes are never
//     delayed. Unreachable clients and reconnection still occur: Delay with
//     a finite d discards an idle client at expire + d through core's
//     Sweep, and the client's next renewal runs core's reconnection
//     protocol.
package algo

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// objKey identifies an object globally (server + object id).
type objKey struct {
	server, object string
}

// copyKey identifies one client's cached copy of one object.
type copyKey struct {
	client string
	obj    objKey
}

// base carries the state every algorithm shares: the authoritative object
// version at the server and each client's cached copy version.
type base struct {
	env    *sim.Env
	vers   map[objKey]int64
	copies map[copyKey]int64
}

func newBase(env *sim.Env) base {
	return base{
		env:    env,
		vers:   make(map[objKey]int64),
		copies: make(map[copyKey]int64),
	}
}

// version returns the server's current version of k (0 if never written).
func (b *base) version(k objKey) int64 { return b.vers[k] }

// bump increments the server version of k.
func (b *base) bump(k objKey) { b.vers[k]++ }

// hasCurrentCopy reports whether the client's cached copy of k matches the
// server version.
func (b *base) hasCurrentCopy(ck copyKey) bool {
	v, ok := b.copies[ck]
	return ok && v == b.vers[ck.obj]
}

// hasCopy reports whether the client caches any copy of k (possibly stale).
func (b *base) hasCopy(ck copyKey) bool {
	_, ok := b.copies[ck]
	return ok
}

// dropCopy deletes the client's cached copy (the protocol's response to an
// invalidation: o.data <- NULL).
func (b *base) dropCopy(ck copyKey) { delete(b.copies, ck) }

// msg records one protocol message involving server.
func (b *base) msg(now time.Time, server string, class metrics.MsgClass, bytes int64) {
	b.env.Rec.Message(server, class, bytes, now)
}

// fetchResponse accounts the server's response to a validation or lease
// request: a small control message if the client's copy is current, a data
// message otherwise (and installs the fresh copy client-side). The class is
// used for the no-payload case; payload responses are MsgData.
func (b *base) fetchResponse(now time.Time, ck copyKey, size int64, class metrics.MsgClass) {
	if b.hasCurrentCopy(ck) {
		b.msg(now, ck.obj.server, class, sim.CtrlBytes)
		return
	}
	b.msg(now, ck.obj.server, metrics.MsgData, sim.DataBytes(size))
	b.copies[ck] = b.vers[ck.obj]
}

// chargeState adjusts the consistency-state size at server by delta lease
// records.
func (b *base) chargeState(now time.Time, server string, deltaRecords int) {
	b.env.Rec.AdjustState(server, now, int64(deltaRecords)*sim.LeaseRecordBytes)
}

// leaseSet is Lease's collection of object leases with automatic expiry:
// every grant charges one record of server state and schedules a timer that
// releases the record the moment the lease expires.
type leaseSet struct {
	env    *sim.Env
	leases map[objKey]map[string]time.Time // key -> client -> expiry
}

func newLeaseSet(env *sim.Env) *leaseSet {
	return &leaseSet{env: env, leases: make(map[objKey]map[string]time.Time)}
}

// valid reports whether client holds an unexpired lease on k.
func (ls *leaseSet) valid(now time.Time, k objKey, client string) bool {
	exp, ok := ls.leases[k][client]
	return ok && exp.After(now)
}

// grant gives client a lease on k until now+d, charging state if the client
// did not already hold one.
func (ls *leaseSet) grant(now time.Time, k objKey, client string, d time.Duration) {
	m, ok := ls.leases[k]
	if !ok {
		m = make(map[string]time.Time)
		ls.leases[k] = m
	}
	if _, held := m[client]; !held {
		ls.env.Rec.AdjustState(k.server, now, sim.LeaseRecordBytes)
	}
	expire := now.Add(d)
	m[client] = expire
	ls.env.Schedule(expire, func(fireNow time.Time) {
		cur, held := ls.leases[k][client]
		if held && !cur.After(fireNow) {
			ls.remove(fireNow, k, client)
		}
	})
}

// revoke removes the client's lease on k immediately (server-driven
// invalidation), releasing its state charge. It reports whether a lease was
// held.
func (ls *leaseSet) revoke(now time.Time, k objKey, client string) bool {
	if _, held := ls.leases[k][client]; !held {
		return false
	}
	ls.remove(now, k, client)
	return true
}

// remove deletes the record and releases the state charge.
func (ls *leaseSet) remove(now time.Time, k objKey, client string) {
	delete(ls.leases[k], client)
	if len(ls.leases[k]) == 0 {
		delete(ls.leases, k)
	}
	ls.env.Rec.AdjustState(k.server, now, -sim.LeaseRecordBytes)
}

// holders returns, sorted for determinism, the clients holding valid leases
// on k at now.
func (ls *leaseSet) holders(now time.Time, k objKey) []string {
	m := ls.leases[k]
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for c, exp := range m {
		if exp.After(now) {
			out = append(out, c)
		}
	}
	sort.Strings(out)
	return out
}

// fnv32 is a tiny FNV-1a hash for grouping.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
