package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Origin is where a Server's objects and lease terms come from. The lease
// machine — grant, renew, reconnect, invalidate/ack/wait-out — is the same
// at every level of a hierarchy; what differs is captured here, and the
// shared code never asks which implementation it is talking to. There are
// two: the local store (New: this node is the authority, leases are bounded
// only by the table's terms, a write installs the data) and an upstream
// lease client (NewCache, implemented by internal/proxy: this node holds
// its objects under leases of its own, so nothing it grants may outlive
// them, and a write is the upstream's invalidation passing through).
//
// ObjectBound, VolumeBound, Install and Finish are called with the shard
// mutex of the volume concerned held, so an implementation may guard its
// per-object state with it; they must not block. Fetch, RenewVolume and
// Write block on the origin and are called on a side goroutine with no lock
// held.
type Origin interface {
	// ObjectBound reports the latest instant a lease on oid granted now may
	// expire (zero: no limit beyond the table's term). ok is false when the
	// node cannot vouch for its copy until the origin has been consulted:
	// the request is parked, Fetch and Install run, and it is retried.
	ObjectBound(oid core.ObjectID) (bound time.Time, ok bool)
	// VolumeBound is ObjectBound for a volume lease; RenewVolume is what a
	// parked request waits for.
	VolumeBound(vid core.VolumeID) (bound time.Time, ok bool)
	// Fetch brings the origin's current copy of oid to this node and
	// reports the volume that owns it.
	Fetch(oid core.ObjectID) (core.VolumeID, error)
	// Install writes the fetched copy into the owning volume's table. A
	// copy the origin took back since Fetch is not installed, and is no
	// error: ObjectBound still cannot vouch, so the request goes round
	// again and is fetched anew.
	Install(t *core.Table, oid core.ObjectID) error
	// RenewVolume makes VolumeBound answerable again.
	RenewVolume(vid core.VolumeID) error
	// Write performs a write a client asked this node for.
	Write(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error)
	// Finish ends an invalidation round: every holder in plan.Notify has
	// acknowledged or is listed in unacked, and what happens to the node's
	// copy is the origin's business.
	Finish(t *core.Table, now time.Time, plan core.WritePlan, data []byte, unacked []core.ClientID) (core.Version, error)
}

// local is the Origin of a server that owns its objects.
type local struct{ s *Server }

func (local) ObjectBound(core.ObjectID) (time.Time, bool) { return time.Time{}, true }
func (local) VolumeBound(core.VolumeID) (time.Time, bool) { return time.Time{}, true }
func (local) Install(*core.Table, core.ObjectID) error    { return nil }
func (local) RenewVolume(core.VolumeID) error             { return nil }

// Fetch has nowhere further to look: an object is here or does not exist.
func (o local) Fetch(oid core.ObjectID) (core.VolumeID, error) {
	sh, err := o.s.shardOfObject(oid)
	if err != nil {
		return "", err
	}
	return sh.vol, nil
}

func (o local) Write(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	return o.s.WriteTraced(oid, data, tc)
}

// Finish installs the data and commits the new version.
func (o local) Finish(t *core.Table, now time.Time, plan core.WritePlan, data []byte, unacked []core.ClientID) (core.Version, error) {
	version, err := t.FinishWrite(now, plan.Object, data, unacked)
	if err == nil {
		o.s.emit(obs.Event{Type: obs.EvWriteApplied, Object: plan.Object, Volume: plan.Volume,
			Version: version, N: len(unacked), At: now})
	}
	return version, err
}

// capAt limits a lease expiry to the origin's bound (zero: no limit).
func capAt(expire, bound time.Time) time.Time {
	if !bound.IsZero() && bound.Before(expire) {
		return bound
	}
	return expire
}

// park keeps the connection's reader free while a request waits — for a
// write in flight on its object, for an acknowledgment the client owes, or
// for the origin. wait runs on a side goroutine; when it succeeds the
// request is dispatched again from the top, so whatever it waited for is
// re-checked under the shard mutex.
func (s *Server) park(cc *clientConn, req wire.Message, wait func() error) error {
	go func() {
		if err := wait(); err != nil {
			_ = s.sendErr(cc, req.Sequence(), err)
			return
		}
		select {
		case <-cc.gone: // nobody left to answer
		default:
			_ = s.dispatch(cc, req)
		}
	}()
	return nil
}

// closedOr waits for ch to close, giving up when the server shuts down.
func (s *Server) closedOr(ch <-chan struct{}) error {
	select {
	case <-ch:
		return nil
	case <-s.closed:
		return errClosed
	}
}

// consult asks the origin for its current copy of oid and installs it: what
// a parked request waits for when ObjectBound cannot vouch for the node's
// copy, or the node has never seen the object. A write in flight on oid
// finishes first (parkOnWrites): the copy to vouch for is what it leaves.
func (s *Server) consult(oid core.ObjectID) error {
	vid, err := s.origin.Fetch(oid)
	if err != nil {
		return err
	}
	sh := s.shardOf(vid)
	if sh == nil {
		return fmt.Errorf("%w: %q", core.ErrNoSuchVolume, vid)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := s.origin.Install(sh.table, oid); err != nil {
		return err
	}
	// Most consults refresh an object already indexed; Store allocates. An
	// object is indexed only once the table holds a copy of it, which an
	// Install of a copy taken back since Fetch has not made.
	if _, indexed := s.objs.Load(oid); !indexed {
		if _, _, err := sh.table.Read(oid); err == nil {
			s.objs.Store(oid, sh)
		}
	}
	return nil
}
