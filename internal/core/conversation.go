package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// VolumeGrantStatus tells the server how to proceed with a volume-lease
// request.
type VolumeGrantStatus int

const (
	// VolumeGranted: the lease was granted; send VOL_LEASE.
	VolumeGranted VolumeGrantStatus = iota + 1
	// VolumePendingInvalidations: send the INVALIDATE/RENEW vector
	// (Invalidate, Renew) and confirm its ack (ConfirmVolume) before a grant.
	VolumePendingInvalidations
	// VolumeNeedsRenewAll: the client is Unreachable or presented a stale
	// epoch; send MUST_RENEW_ALL, then HandleRenewObjLeases answers the
	// client's RENEW_OBJ_LEASES with a vector.
	VolumeNeedsRenewAll
	// VolumeAckOwed: the client owes writes in flight (Owed) an ack; a lease
	// granted now could outlive their bound, so ask again once they finish.
	VolumeAckOwed
)

// String names the status.
func (s VolumeGrantStatus) String() string {
	switch s {
	case VolumeGranted:
		return "granted"
	case VolumePendingInvalidations:
		return "pending-invalidations"
	case VolumeNeedsRenewAll:
		return "needs-renew-all"
	case VolumeAckOwed:
		return "ack-owed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// VolumeGrant is the answer to one step of the volume conversation.
type VolumeGrant struct {
	Status VolumeGrantStatus
	Volume VolumeID
	Expire time.Time // valid when Status == VolumeGranted
	Epoch  Epoch     // current volume epoch
	// Invalidate and Renew are the vector, when Status ==
	// VolumePendingInvalidations: objects to drop, and fresh leases
	// (metadata only) from a reconnection.
	Invalidate []ObjectID
	Renew      []ObjectGrant
	Owed       []ObjectID // objects whose writes await the client's ack, when Status == VolumeAckOwed
}

// conversation is one client's volume conversation in progress, opened by a
// request the table cannot grant at once and closed by the grant or by the
// client's next request. Every step must present the request's seq.
type conversation struct {
	seq uint64
	// awaitHeld: MUST_RENEW_ALL went out and RENEW_OBJ_LEASES is due;
	// otherwise a vector went out and its ack is due.
	awaitHeld bool
	// sent and renewed are the last vector: the objects it invalidated, and
	// the leases it renewed with their versions.
	sent    []ObjectID
	renewed map[*object]Version
	// landed lists the objects whose writes left the client un-notified
	// since the vector went out (queued, or skipped as Unreachable); lost,
	// that the client was moved to the Unreachable set since then.
	landed []ObjectID
	lost   bool
}

// RequestVolumeLease is RequestVolume for a caller that numbers no
// conversations: it runs one per client at a time, under sequence number 0.
func (t *Table) RequestVolumeLease(now time.Time, client ClientID, vid VolumeID, clientEpoch Epoch) (VolumeGrant, error) {
	return t.RequestVolume(now, client, vid, clientEpoch, 0)
}

// RequestVolume handles REQ_VOL_LEASE number seq (Figure 3, "Server grants
// lease for volume v"). It grants at once, defers while the client owes an
// ack, or opens a conversation under seq: delivery of queued invalidations
// first, or the full reconnection protocol. A request abandons the client's
// conversation in progress.
func (t *Table) RequestVolume(now time.Time, client ClientID, vid VolumeID, clientEpoch Epoch, seq uint64) (VolumeGrant, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return VolumeGrant{}, err
	}
	delete(v.convs, client)
	if g, owed := v.owedBy(client); owed {
		return g, nil
	}
	t.lazyDiscard(now, v, client)
	if _, unreachable := v.unreachable[client]; unreachable || clientEpoch != v.epoch {
		v.convs[client] = &conversation{seq: seq, awaitHeld: true}
		return VolumeGrant{Status: VolumeNeedsRenewAll, Volume: vid, Epoch: v.epoch}, nil
	}
	if ia, ok := v.inactive[client]; ok && len(ia.pending) > 0 {
		inv := sortedObjects(ia.pending)
		v.convs[client] = &conversation{seq: seq, sent: inv}
		return VolumeGrant{Status: VolumePendingInvalidations, Volume: vid, Epoch: v.epoch, Invalidate: inv}, nil
	}
	return t.grantVolume(now, v, client), nil
}

// owedBy answers VolumeAckOwed if the client owes one of v's writes in
// flight an ack.
func (v *volume) owedBy(client ClientID) (VolumeGrant, bool) {
	var owed []ObjectID
	for o := range v.writing {
		if _, ok := o.owed[client]; ok {
			owed = append(owed, o.id)
		}
	}
	return VolumeGrant{Status: VolumeAckOwed, Volume: v.id, Epoch: v.epoch, Owed: owed}, len(owed) > 0
}

// grantVolume installs the lease, closing the client's conversation, and
// returns the granted reply.
func (t *Table) grantVolume(now time.Time, v *volume, client ClientID) VolumeGrant {
	expire := now.Add(t.cfg.VolumeLease)
	v.setVolLease(client, lease{granted: now, expire: expire})
	delete(v.convs, client)
	delete(v.unreachable, client)
	delete(v.volExpiredAt, client)
	delete(v.inactive, client)
	return VolumeGrant{Status: VolumeGranted, Volume: v.id, Expire: expire, Epoch: v.epoch}
}

// step returns the client's conversation seq if it is at the step named by
// awaitHeld.
func (v *volume) step(client ClientID, seq uint64, awaitHeld bool) (*conversation, error) {
	c := v.convs[client]
	if c == nil || c.seq != seq || c.awaitHeld != awaitHeld {
		return nil, fmt.Errorf("%w: client %q, volume %q, seq %d", ErrNoConversation, client, v.id, seq)
	}
	return c, nil
}

// HandleRenewObjLeases processes RENEW_OBJ_LEASES from a reconnecting
// client (Figure 3, recoverUnreachableClient) in its conversation seq, and
// answers with the vector: objects whose version changed while the client
// was away are invalidated, the rest get fresh leases. It changes nothing
// and refuses with ErrWriteInFlight while one of the objects has a write in
// flight, and with ErrNoConversation unless the client's conversation seq
// awaits the list.
func (t *Table) HandleRenewObjLeases(now time.Time, client ClientID, vid VolumeID, seq uint64, held []HeldObject) (VolumeGrant, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return VolumeGrant{}, err
	}
	for _, h := range held {
		if o, ok := v.objects[h.Object]; ok && o.owed != nil {
			return VolumeGrant{}, fmt.Errorf("%w: %q", ErrWriteInFlight, h.Object)
		}
	}
	c, err := v.step(client, seq, true)
	if err != nil {
		return VolumeGrant{}, err
	}
	res := VolumeGrant{Status: VolumePendingInvalidations, Volume: vid, Epoch: v.epoch}
	renewed := make(map[*object]Version, len(held))
	for _, h := range held {
		o, ok := v.objects[h.Object]
		if !ok || o.version != h.Version {
			// Deleted at the server, or changed while the client was away.
			res.Invalidate = append(res.Invalidate, h.Object)
			if ok {
				v.dropObjLease(o, client)
			}
			continue
		}
		expire := now.Add(t.cfg.ObjectLease)
		v.setObjLease(o, client, lease{granted: now, expire: expire})
		renewed[o] = o.version
		res.Renew = append(res.Renew, ObjectGrant{Object: h.Object, Version: o.version, Expire: expire})
	}
	slices.Sort(res.Invalidate)
	sort.Slice(res.Renew, func(i, j int) bool { return res.Renew[i].Object < res.Renew[j].Object })
	*c = conversation{seq: seq, sent: res.Invalidate, renewed: renewed}
	return res, nil
}

// ConfirmVolume handles the client's ACK_INVALIDATE in its conversation
// seq; acked names the objects it dropped. It grants the volume lease only
// if no write has landed since the vector went out. Otherwise the
// conversation stays open and the answer is another vector
// (VolumePendingInvalidations) naming what the client must still drop: the
// objects of writes queued for it, or that skipped it as Unreachable; the
// renewed objects whose version has moved or that have a write in flight;
// and the last vector's objects acked does not name. A client moved to the
// Unreachable set meanwhile (by the discard at expire + d or a write's
// finish) is answered VolumeNeedsRenewAll, and one that owes a write an ack
// VolumeAckOwed, as by RequestVolume. It refuses with ErrNoConversation
// unless conversation seq awaits the ack.
func (t *Table) ConfirmVolume(now time.Time, client ClientID, vid VolumeID, seq uint64, acked []ObjectID) (VolumeGrant, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return VolumeGrant{}, err
	}
	c, err := v.step(client, seq, false)
	if err != nil {
		return VolumeGrant{}, err
	}
	if g, owed := v.owedBy(client); owed {
		return g, nil
	}
	if c.lost {
		*c = conversation{seq: seq, awaitHeld: true}
		return VolumeGrant{Status: VolumeNeedsRenewAll, Volume: vid, Epoch: v.epoch}, nil
	}
	rest := c.landed
	for _, oid := range c.sent {
		if !slices.Contains(acked, oid) {
			rest = append(rest, oid)
		}
	}
	for o, version := range c.renewed {
		if o.version != version || o.owed != nil {
			rest = append(rest, o.id)
			v.dropObjLease(o, client)
			delete(c.renewed, o)
		}
	}
	if len(rest) == 0 {
		return t.grantVolume(now, v, client), nil
	}
	slices.Sort(rest)
	c.sent, c.landed = slices.Compact(rest), nil
	return VolumeGrant{Status: VolumePendingInvalidations, Volume: vid, Epoch: v.epoch, Invalidate: c.sent}, nil
}

// missed records that a write of oid left a client in a conversation
// un-notified.
func (v *volume) missed(client ClientID, oid ObjectID) {
	if c := v.convs[client]; c != nil {
		c.landed = append(c.landed, oid)
	}
}

// lose moves a client to the Unreachable set: it may have missed an
// invalidation and must reconnect. Its conversation, if any, is lost.
func (v *volume) lose(client ClientID) {
	v.unreachable[client] = struct{}{}
	delete(v.inactive, client)
	if c := v.convs[client]; c != nil {
		c.lost = true
	}
}
