package core

import (
	"fmt"
	"sort"
	"time"
)

// Anchor is one reading of a holder's two clocks, taken when a reply that
// grants leases arrives: where the grant's wall-clock expiries are moved onto
// the monotonic timeline. Take it once per received message however many
// leases it carries, monotonic reading first, so a preemption between the
// two makes the remaining term look shorter, never longer.
type Anchor struct {
	Mono time.Duration
	Wall time.Time
}

// ClientVolumeLease is one volume lease as cached by a client.
type ClientVolumeLease struct {
	Volume VolumeID  `json:"volume"`
	Epoch  Epoch     `json:"epoch"`
	Expire time.Time `json:"expire"`
}

// ClientObjectLease is one object lease as cached by a client.
type ClientObjectLease struct {
	Object  ObjectID  `json:"object"`
	Volume  VolumeID  `json:"volume"`
	Version Version   `json:"version"`
	Expire  time.Time `json:"expire"`
	HasData bool      `json:"has_data"`
}

// heldLease is a lease as the holder sees it. The zero value is no lease.
type heldLease struct {
	// expire is the grant's expiry as the server stamped it: what snapshots
	// show and what a proxy caps its sub-leases at. No validity check reads
	// it.
	expire time.Time
	// until is the instant on the holder's monotonic timeline strictly
	// before which the lease is trusted; set only by Holder.lease.
	until time.Duration
}

// heldVolume is the holder's lease on one volume.
type heldVolume struct {
	heldLease
	epoch Epoch
	known bool // epoch learned at least once
}

// heldObject is the holder's entry for one object. begin creates it, and it
// never leaves the map, so its generation outlives every drop of the copy.
type heldObject struct {
	volume VolumeID
	// vol is h.vols[volume], so a hit finds both leases with one lookup. A
	// heldVolume is updated in place on renewal and never leaves the map.
	vol     *heldVolume
	data    []byte
	version Version
	heldLease
	hasData bool
	gen     uint64 // invalidations of this object: begin's token (grantObject)
}

// Holder is the client half of Figure 4 as a pure table, the counterpart of
// Table: one client's volume leases with their epochs and its cached copies
// with their object leases, and the read (Read), request, install and
// invalidate rules over them. It reads no clock and does no I/O: a validity
// check takes a reading of the holder's monotonic clock (clock.Clock.Mono),
// an install an Anchor. It is not safe for concurrent use; internal/client calls it under
// its mutex, and the property test drives it against a Table.
type Holder struct {
	skew time.Duration
	vols map[VolumeID]*heldVolume
	objs map[ObjectID]*heldObject
}

// NewHolder builds an empty holder that takes skew off every lease term
// before trusting it (client.Config.Skew).
func NewHolder(skew time.Duration) *Holder {
	return &Holder{
		skew: skew,
		vols: make(map[VolumeID]*heldVolume),
		objs: make(map[ObjectID]*heldObject),
	}
}

// lease is the lease to install for a grant expiring at expire, received at
// a: the term still ahead on the wall clock (the one place the holder's wall
// clock is assumed to agree with the server's), less the skew margin, laid
// off from a on the monotonic clock. Every later validity check is one
// comparison against a monotonic reading and never looks at the wall clock.
func (h *Holder) lease(a Anchor, expire time.Time) heldLease {
	return heldLease{expire: expire, until: a.Mono + expire.Sub(a.Wall) - h.skew}
}

// volume returns vid's entry, creating it (no lease, epoch unknown) on first
// mention.
func (h *Holder) volume(vid VolumeID) *heldVolume {
	v := h.vols[vid]
	if v == nil {
		v = &heldVolume{}
		h.vols[vid] = v
	}
	return v
}

// Check is Figure 4's read test at now, a monotonic reading: whether the
// lease on vid and the lease on oid are valid, and the copy of oid. The copy
// may be read iff both are; objOK implies a copy is held. The returned slice
// is shared; callers must not modify it.
func (h *Holder) Check(vid VolumeID, oid ObjectID, now time.Duration) (data []byte, version Version, volOK, objOK bool) {
	o := h.objs[oid]
	if o != nil && o.hasData && o.volume == vid {
		return o.data, o.version, o.vol.until > now, o.until > now // the hit: no second map lookup
	}
	v, ok := h.vols[vid]
	if o == nil || !o.hasData {
		return nil, 0, ok && v.until > now, false
	}
	return o.data, o.version, ok && v.until > now, o.until > now
}

// begin opens a request for a lease on oid (Figure 4, "Client requests lease
// for object o"): version is the one to report, NoVersion without a copy,
// and token is what grantObject must be handed with the reply.
func (h *Holder) begin(oid ObjectID) (version Version, token uint64) {
	o := h.objs[oid]
	if o == nil {
		o = &heldObject{}
		h.objs[oid] = o
	}
	if !o.hasData {
		return NoVersion, o.gen
	}
	return o.version, o.gen
}

// grantObject installs the reply g to the request begin returned token for,
// received at a: the lease, and the data if the reply carries it (hasData),
// else the copy already held stays. vid is the object's volume. A reply
// overtaken by an invalidation of its object is dropped (Read.Step).
func (h *Holder) grantObject(token uint64, vid VolumeID, g ObjectGrant, hasData bool, a Anchor) error {
	o := h.objs[g.Object]
	if o == nil || o.gen != token {
		return nil
	}
	o.volume, o.vol = vid, h.volume(vid)
	o.heldLease = h.lease(a, g.Expire)
	o.version = g.Version
	if hasData {
		o.data, o.hasData = g.Data, true
	} else if !o.hasData {
		// The server said our copy is current but we have none: treat it as a
		// protocol anomaly and drop the lease so the next read refetches.
		o.heldLease = heldLease{}
		return fmt.Errorf("core: server granted lease on %s without data for an empty cache", g.Object)
	}
	return nil
}

// grantVolume installs a lease on vid granted under epoch, received at a.
func (h *Holder) grantVolume(vid VolumeID, epoch Epoch, expire time.Time, a Anchor) {
	v := h.volume(vid)
	v.heldLease, v.epoch, v.known = h.lease(a, expire), epoch, true
}

// Epoch is the epoch to present when requesting a lease on vid: the one last
// granted, NoEpoch before the first grant.
func (h *Holder) Epoch(vid VolumeID) Epoch {
	if _, epoch, _, ok := h.Volume(vid); ok {
		return epoch
	}
	return NoEpoch
}

// renewObject applies one renew entry of an INVALIDATE/RENEW vector, received
// at a: a fresh lease if the holder caches oid at version. Otherwise the
// server renewed something the holder does not hold at that version, and the
// copy is dropped so the next read refetches cleanly. An object the holder
// never requested is ignored.
func (h *Holder) renewObject(oid ObjectID, version Version, expire time.Time, a Anchor) {
	if o, ok := h.objs[oid]; ok && o.hasData && o.version == version {
		o.heldLease = h.lease(a, expire)
	} else if ok {
		o.data, o.hasData, o.heldLease = nil, false, heldLease{}
	}
}

// Invalidate drops the copies of and leases on objects (Figure 4, "Client
// receives object invalidation message") and moves each one's generation on,
// so a grant still in flight for one of them is dropped when it arrives. An
// object without an entry has no request in flight: there is nothing to do.
func (h *Holder) Invalidate(objects []ObjectID) {
	for _, oid := range objects {
		if o, ok := h.objs[oid]; ok {
			o.gen++
			o.data, o.hasData, o.heldLease = nil, false, heldLease{}
		}
	}
}

// held lists every copy of vid's objects with its version, sorted by object,
// for RENEW_OBJ_LEASES. After a server crash all server-side lease state is
// gone, so the holder reports everything it caches (a superset of Figure 4's
// expired-lease list; the extra entries simply come back renewed). Sorting
// makes the message's bytes a function of the holder's state alone.
func (h *Holder) held(vid VolumeID) []HeldObject {
	var held []HeldObject
	for oid, o := range h.objs {
		if o.volume == vid && o.hasData {
			held = append(held, HeldObject{Object: oid, Version: o.version})
		}
	}
	sort.Slice(held, func(i, j int) bool { return held[i].Object < held[j].Object })
	return held
}

// Object reports the copy of oid: its data and version, the expiry as the
// server granted it, and until, the monotonic instant before which the holder
// trusts the lease. ok is false when no copy is held. The returned slice is
// shared; callers must not modify it.
func (h *Holder) Object(oid ObjectID) (data []byte, version Version, expire time.Time, until time.Duration, ok bool) {
	o := h.objs[oid]
	if o == nil || !o.hasData {
		return nil, 0, time.Time{}, 0, false
	}
	return o.data, o.version, o.expire, o.until, true
}

// Volume reports the lease on vid: the expiry as granted, the epoch, and
// until as in Object. ok is false before the first grant.
func (h *Holder) Volume(vid VolumeID) (expire time.Time, epoch Epoch, until time.Duration, ok bool) {
	v, found := h.vols[vid]
	if !found || !v.known {
		return time.Time{}, 0, 0, false
	}
	return v.expire, v.epoch, v.until, true
}

// Snapshot copies every lease the holder was granted and has not dropped,
// expired ones included, sorted by volume and by object. The slices share no
// memory with the holder.
func (h *Holder) Snapshot() ([]ClientVolumeLease, []ClientObjectLease) {
	vols := make([]ClientVolumeLease, 0, len(h.vols))
	for vid, v := range h.vols {
		if !v.expire.IsZero() {
			vols = append(vols, ClientVolumeLease{Volume: vid, Epoch: v.epoch, Expire: v.expire})
		}
	}
	objs := make([]ClientObjectLease, 0, len(h.objs))
	for oid, o := range h.objs {
		if !o.expire.IsZero() {
			objs = append(objs, ClientObjectLease{Object: oid, Volume: o.volume,
				Version: o.version, Expire: o.expire, HasData: o.hasData})
		}
	}
	sort.Slice(vols, func(i, j int) bool { return vols[i].Volume < vols[j].Volume })
	sort.Slice(objs, func(i, j int) bool { return objs[i].Object < objs[j].Object })
	return vols, objs
}
