package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// valid reports whether a lease is unexpired at now.
func (l lease) valid(now time.Time) bool { return l.expire.After(now) }

// HeldObject is one entry of a client's RENEW_OBJ_LEASES message: an object
// the client caches and the version it holds.
type HeldObject struct {
	Object  ObjectID
	Version Version
}

// ObjectGrant is the server's OBJ_LEASE response (Figure 3, "Server grants
// lease for object o"): the current version, the lease expiry, and the data
// iff the client's copy was out of date.
type ObjectGrant struct {
	Object  ObjectID
	Version Version
	Expire  time.Time
	// Data is nil when the client already holds the current version.
	// Otherwise it is the table's own slice for that version: the returned
	// slice is shared; callers must not modify it.
	Data []byte
}

// GrantObjectLease handles REQ_OBJ_LEASE: grant (or renew) the client's
// lease on oid and piggyback the data if the client's version is stale. It
// refuses with ErrWriteInFlight while oid has a write in flight.
func (t *Table) GrantObjectLease(now time.Time, client ClientID, oid ObjectID, clientVersion Version) (ObjectGrant, error) {
	o, err := t.lookup(oid)
	if err != nil {
		return ObjectGrant{}, err
	}
	if o.owed != nil {
		return ObjectGrant{}, fmt.Errorf("%w: %q", ErrWriteInFlight, oid)
	}
	expire := now.Add(t.cfg.ObjectLease)
	o.vol.setObjLease(o, client, lease{granted: now, expire: expire})
	g := ObjectGrant{Object: oid, Version: o.version, Expire: expire}
	if clientVersion != o.version {
		g.Data = o.data
	}
	return g, nil
}

// Invalidation is one client the writing server must notify, with the time
// at which the server may stop waiting for its acknowledgment: the earlier
// of the client's volume- and object-lease expiries (Figure 3's
// min(o.volume.expire, o.expire), applied per client for a tight bound).
type Invalidation struct {
	Client      ClientID
	LeaseExpire time.Time
}

// QueuedInvalidation is one client whose invalidation was queued for later
// delivery (delayed mode). Since is when its volume lease expired — the
// start of the discard window.
type QueuedInvalidation struct {
	Client ClientID
	Since  time.Time
}

// WritePlan tells the server what a pending write must do before the data
// can change: notify every client in Notify and collect acknowledgments
// until each client acks or its LeaseExpire passes. Queued and Dropped
// report delayed-mode side effects for observability: clients moved to the
// Inactive set with the invalidation queued, and clients routed straight to
// the Unreachable set because their discard window had already elapsed.
// Write is the write's number, for the invalidations to carry.
type WritePlan struct {
	Object  ObjectID
	Volume  VolumeID
	Write   WriteNum
	Notify  []Invalidation
	Queued  []QueuedInvalidation
	Dropped []ClientID
}

// BeginWrite starts a write of oid (Figure 3, "Server writes object o").
// In ModeEager every valid object-lease holder (not already unreachable) is
// notified. In ModeDelayed holders whose volume lease has expired are
// instead moved to the Inactive set with the invalidation queued. The write
// is in flight, each notified client owing it an ack, until FinishWrite or
// MarkStale.
func (t *Table) BeginWrite(now time.Time, oid ObjectID) (WritePlan, error) {
	o, err := t.lookup(oid)
	if err != nil {
		return WritePlan{}, err
	}
	if o.owed != nil {
		return WritePlan{}, fmt.Errorf("%w: %q", ErrWriteInFlight, oid)
	}
	if t.writeFence.After(now) {
		return WritePlan{}, fmt.Errorf("%w (until %v)", ErrWriteFenced, t.writeFence)
	}
	v := o.vol
	o.writes++
	o.owed = make(map[ClientID]time.Time, len(o.at))
	v.writing[o] = struct{}{}
	plan := WritePlan{Object: oid, Volume: v.id, Write: o.writes}
	for client, ol := range o.at {
		if !ol.valid(now) {
			v.dropObjLease(o, client)
			continue
		}
		if _, unreachable := v.unreachable[client]; unreachable {
			// Figure 3 skips unreachable clients: they will resynchronize
			// through the reconnection protocol.
			v.missed(client, oid)
			v.dropObjLease(o, client)
			continue
		}
		vl, hasVol := v.at[client]
		volValid := hasVol && vl.valid(now)
		if t.cfg.Mode == ModeDelayed && !volValid {
			if queued, since := t.queuePending(now, v, client, oid, vl, hasVol); queued {
				plan.Queued = append(plan.Queued, QueuedInvalidation{Client: client, Since: since})
			} else {
				plan.Dropped = append(plan.Dropped, client)
			}
			v.missed(client, oid)
			v.dropObjLease(o, client)
			continue
		}
		// Figure 3's wait bound is min(o.volume.expire, o.expire): the
		// server may write once EITHER lease has expired. A client whose
		// volume lease already lapsed therefore contributes a bound in the
		// past (no wait) even though it is still notified.
		bound := ol.expire
		if volBound, known := volumeBound(v, client, vl, hasVol); known && volBound.Before(bound) {
			bound = volBound
		}
		plan.Notify = append(plan.Notify, Invalidation{Client: client, LeaseExpire: bound})
		o.owed[client] = bound
	}
	sort.Slice(plan.Notify, func(i, j int) bool { return plan.Notify[i].Client < plan.Notify[j].Client })
	return plan, nil
}

// volumeBound reports when the client's volume lease expires (or expired):
// from the live lease record if present, else from the expiry log. Unknown
// when the client never held a volume lease here.
func volumeBound(v *volume, client ClientID, vl lease, hasVol bool) (time.Time, bool) {
	if hasVol {
		return vl.expire, true
	}
	if at, ok := v.volExpiredAt[client]; ok {
		return at, true
	}
	return time.Time{}, false
}

// queuePending moves a volume-expired client to the Inactive set and queues
// the invalidation, unless the discard window has already elapsed, in which
// case the client goes straight to Unreachable. It reports which way the
// client went, and the volume-lease expiry the discard window runs from.
func (t *Table) queuePending(now time.Time, v *volume, client ClientID, oid ObjectID, vl lease, hasVol bool) (queued bool, since time.Time) {
	// If the expiry time is unknowable (the client never held a volume
	// lease here), the zero since conservatively routes it straight to the
	// Unreachable set when a discard window is configured.
	since, _ = volumeBound(v, client, vl, hasVol)
	if t.cfg.InactiveDiscard > 0 && !now.Before(since.Add(t.cfg.InactiveDiscard)) {
		v.lose(client)
		return false, since
	}
	ia, ok := v.inactive[client]
	if !ok {
		ia = &inactiveState{pending: make(map[ObjectID]struct{}), since: since}
		v.inactive[client] = ia
	}
	if ia.pending == nil {
		ia.pending = make(map[ObjectID]struct{})
	}
	ia.pending[oid] = struct{}{}
	return true, since
}

// AckWrite records client's ACK_INVALIDATE for write n of oid (0: the one in
// flight). Only an outstanding invalidation is acknowledged, releasing the
// object lease; an ack for a finished or other write is ignored, as the
// client may hold a lease granted since. It reports whether the ack was
// applied and whether the write then waits on nobody.
func (t *Table) AckWrite(now time.Time, client ClientID, oid ObjectID, n WriteNum) (applied, last bool, err error) {
	o, err := t.lookup(oid)
	if err != nil {
		return false, false, err
	}
	if _, owed := o.owed[client]; !owed || (n != 0 && n != o.writes) {
		return false, false, nil
	}
	delete(o.owed, client)
	o.vol.dropObjLease(o, client)
	return true, len(o.owed) == 0, nil
}

// AckWriteInvalidate is AckWrite for the write in flight on oid.
func (t *Table) AckWriteInvalidate(now time.Time, client ClientID, oid ObjectID) error {
	_, _, err := t.AckWrite(now, client, oid, 0)
	return err
}

// Unacked lists, sorted, the clients that finishing oid's write at now moves
// to the Unreachable set: those owing it an ack that still hold a lease on
// oid. One whose lease on oid ran out missed nothing it can read.
func (t *Table) Unacked(now time.Time, oid ObjectID) []ClientID {
	o, err := t.lookup(oid)
	if err != nil {
		return nil
	}
	var out []ClientID
	for client := range o.owed {
		if l, ok := o.at[client]; ok && l.valid(now) {
			out = append(out, client)
		}
	}
	slices.Sort(out)
	return out
}

// FinishWrite completes the write: the clients in unacked, and those that
// Unacked names, are moved to the volume's Unreachable set (their leases
// are dropped), the version is incremented, and the data installed.
func (t *Table) FinishWrite(now time.Time, oid ObjectID, data []byte, unacked []ClientID) (Version, error) {
	o, err := t.lookup(oid)
	if err != nil {
		return 0, err
	}
	t.endWrite(now, o, unacked)
	o.version++
	o.data = append([]byte(nil), data...)
	return o.version, nil
}

// endWrite closes o's write at now: the clients in unacked, and those that
// Unacked names, move to the Unreachable set.
func (t *Table) endWrite(now time.Time, o *object, unacked []ClientID) {
	for _, client := range append(t.Unacked(now, o.id), unacked...) {
		o.vol.unreach(o, client)
	}
	o.owed = nil
	delete(o.vol.writing, o)
}

// unreach moves a client that missed o's invalidation to the Unreachable
// set, dropping its leases on o and on the volume.
func (v *volume) unreach(o *object, client ClientID) {
	v.lose(client)
	v.dropObjLease(o, client)
	delete(v.at, client)
}

// Read returns the object's current version and data (a server-local read).
// The returned slice is shared; callers must not modify it.
func (t *Table) Read(oid ObjectID) (Version, []byte, error) {
	o, err := t.lookup(oid)
	if err != nil {
		return 0, nil, err
	}
	return o.version, o.data, nil
}

// VolumeEpoch reports the volume's epoch.
func (t *Table) VolumeEpoch(vid VolumeID) (Epoch, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return 0, err
	}
	return v.epoch, nil
}

// Objects lists the volume's object ids, sorted.
func (t *Table) Objects(vid VolumeID) ([]ObjectID, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return nil, err
	}
	out := make([]ObjectID, 0, len(v.objects))
	for oid := range v.objects {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Volumes lists all volume ids, sorted.
func (t *Table) Volumes() []VolumeID {
	out := make([]VolumeID, 0, len(t.volumes))
	for vid := range t.volumes {
		out = append(out, vid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VolumeOfObject reports which volume holds oid.
func (t *Table) VolumeOfObject(oid ObjectID) (VolumeID, error) {
	o, err := t.lookup(oid)
	if err != nil {
		return "", err
	}
	return o.vol.id, nil
}

// lazyDiscard applies the InactiveDiscard policy to one client on demand.
// The clock runs from the client's volume-lease expiry, whether or not an
// invalidation was ever queued for it: once d has passed, the server stops
// tracking the client. Its pending list and object leases are dropped, and
// if it still held either at expiry + d it joins the Unreachable set (it
// has missed, or could yet miss, an invalidation); a client that held
// nothing is simply forgotten. It reports whether the client was moved to
// the Unreachable set by this call.
func (t *Table) lazyDiscard(now time.Time, v *volume, client ClientID) bool {
	if !t.discards() {
		return false
	}
	vl, hasVol := v.at[client]
	if hasVol && vl.valid(now) {
		return false
	}
	since, known := volumeBound(v, client, vl, hasVol)
	ia, inactive := v.inactive[client]
	if inactive {
		since, known = ia.since, true
	}
	deadline := since.Add(t.cfg.InactiveDiscard)
	if !known || now.Before(deadline) {
		return false
	}
	discarded := inactive && len(ia.pending) > 0
	delete(v.inactive, client)
	delete(v.volExpiredAt, client)
	for o := range v.held[client] {
		discarded = discarded || o.at[client].expire.After(deadline)
		v.dropObjLease(o, client)
	}
	if discarded {
		v.lose(client)
	}
	return discarded
}

// discards reports whether the table applies the InactiveDiscard policy.
func (t *Table) discards() bool {
	return t.cfg.Mode == ModeDelayed && t.cfg.InactiveDiscard > 0
}

// SweptDiscard names a client a sweep moved to the Unreachable set, so callers can surface the transition (the networked
// server turns each into an observability event).
type SweptDiscard struct {
	Client ClientID
	Volume VolumeID
}

// Sweep removes expired leases, logs volume-lease expiry times for the
// inactivity clock, and applies the InactiveDiscard policy table-wide. The
// networked server calls it periodically; tests call it directly. It
// returns the number of expired records removed since the last Sweep
// (counting those a Stats call removed first) and the clients discarded to
// the Unreachable set. It walks clients, never objects.
func (t *Table) Sweep(now time.Time) (int, []SweptDiscard) {
	removed := 0
	var discarded []SweptDiscard
	for _, v := range t.volumes {
		v.drain(now)
		removed += v.expired
		v.expired = 0
		if t.discards() {
			discard := func(client ClientID) {
				if t.lazyDiscard(now, v, client) {
					discarded = append(discarded, SweptDiscard{Client: client, Volume: v.id})
				}
			}
			for client := range v.inactive {
				discard(client)
			}
			for client := range v.volExpiredAt {
				discard(client)
			}
		}
		// Trim the expiry log for clients that are fully forgotten.
		for client, at := range v.volExpiredAt {
			if age := now.Sub(at); age > 24*time.Hour && age > t.cfg.InactiveDiscard {
				delete(v.volExpiredAt, client)
			}
		}
	}
	return removed, discarded
}

// Recover simulates a server reboot (Section 3.1.2): all lease,
// reachability, pending and conversation state is discarded, every
// volume's epoch is incremented, and writes are fenced for one full
// volume-lease duration so that every lease granted before the crash has
// provably expired. Object data and versions survive (stable storage).
func (t *Table) Recover(now time.Time) {
	for _, v := range t.volumes {
		v.epoch++
		v.at = make(map[ClientID]lease)
		v.unreachable = make(map[ClientID]struct{})
		v.inactive = make(map[ClientID]*inactiveState)
		v.volExpiredAt = make(map[ClientID]time.Time)
		v.convs = make(map[ClientID]*conversation)
		if t.discards() {
			v.held = make(map[ClientID]map[*object]struct{})
		}
		v.objLeases, v.expiries = 0, nil
		for _, o := range v.objects {
			o.at = make(map[ClientID]lease)
		}
	}
	t.writeFence = now.Add(t.cfg.VolumeLease)
}

// WriteFence reports until when writes are blocked after recovery.
func (t *Table) WriteFence() time.Time { return t.writeFence }

// Stats summarizes the table's consistency state using the paper's
// accounting: RecordBytes per lease, queued invalidation, or
// reachability-set entry.
type Stats struct {
	Volumes             int
	Objects             int
	ObjectLeases        int
	VolumeLeases        int
	PendingInvalidation int
	InactiveClients     int
	UnreachableClients  int
	StateBytes          int64
}

// RecordBytes is the per-record charge used by Stats, matching the paper's
// Figure 6/7 accounting.
const RecordBytes = 16

// Add accumulates other into s. Servers that shard their consistency state
// across several tables (one per volume) use it to aggregate a server-wide
// snapshot; every field, including StateBytes, sums linearly.
func (s *Stats) Add(other Stats) {
	s.Volumes += other.Volumes
	s.Objects += other.Objects
	s.ObjectLeases += other.ObjectLeases
	s.VolumeLeases += other.VolumeLeases
	s.PendingInvalidation += other.PendingInvalidation
	s.InactiveClients += other.InactiveClients
	s.UnreachableClients += other.UnreachableClients
	s.StateBytes += other.StateBytes
}

// Stats computes current counts, the sum of every volume's (VolumeStats);
// only leases valid at now are counted. It removes the records expired by
// now (Sweep still reports them) and walks no objects.
func (t *Table) Stats(now time.Time) Stats {
	var s Stats
	for _, v := range t.volumes {
		s.Add(v.stats(now))
	}
	return s
}

// sortedObjects returns the set's members sorted.
func sortedObjects(set map[ObjectID]struct{}) []ObjectID {
	out := make([]ObjectID, 0, len(set))
	for oid := range set {
		out = append(out, oid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// VolumeStats computes Stats restricted to one volume.
func (t *Table) VolumeStats(now time.Time, vid VolumeID) (Stats, error) {
	v, err := t.volumeOf(vid)
	if err != nil {
		return Stats{}, err
	}
	return v.stats(now), nil
}

// stats counts one volume's records at now, once drain has left only the
// valid leases in the maps.
func (v *volume) stats(now time.Time) Stats {
	v.drain(now)
	s := Stats{Volumes: 1, Objects: len(v.objects), VolumeLeases: len(v.at),
		ObjectLeases: v.objLeases, InactiveClients: len(v.inactive),
		UnreachableClients: len(v.unreachable)}
	for _, ia := range v.inactive {
		s.PendingInvalidation += len(ia.pending)
	}
	records := s.ObjectLeases + s.VolumeLeases + s.PendingInvalidation +
		s.InactiveClients + s.UnreachableClients
	s.StateBytes = int64(records) * RecordBytes
	return s
}

// InstallVersion is FinishWrite for caches that mirror another server's
// version numbers (hierarchical proxies, internal/proxy): instead of
// incrementing, it installs the given absolute version. Versions must be
// monotone; installing a version at or below the current one fails.
func (t *Table) InstallVersion(now time.Time, oid ObjectID, data []byte, version Version, unacked []ClientID) error {
	o, err := t.lookup(oid)
	if err != nil {
		return err
	}
	if version <= o.version {
		return fmt.Errorf("core: InstallVersion %d not above current %d for %q", version, o.version, oid)
	}
	for _, client := range unacked {
		o.vol.unreach(o, client)
	}
	o.version = version
	o.data = append([]byte(nil), data...)
	return nil
}

// CreateObjectAt registers an object with an explicit initial version,
// for caches that mirror an upstream server's numbering.
func (t *Table) CreateObjectAt(vid VolumeID, oid ObjectID, data []byte, version Version) error {
	if version < 1 {
		return fmt.Errorf("core: CreateObjectAt %q: version %d < 1", oid, version)
	}
	if err := t.CreateObject(vid, oid, data); err != nil {
		return err
	}
	t.objects[oid].version = version
	return nil
}

// MarkStale records that the local copy of oid no longer reflects the
// authoritative data without assigning the new version yet (hierarchical
// caches learn the version only when they refetch): it finishes the write
// as FinishWrite does, dropping the data. The version is left unchanged so
// a later InstallVersion with the upstream's number stays monotone.
func (t *Table) MarkStale(now time.Time, oid ObjectID, unacked []ClientID) error {
	o, err := t.lookup(oid)
	if err != nil {
		return err
	}
	t.endWrite(now, o, unacked)
	o.data = nil
	return nil
}

// RestoreData re-installs data for an object whose copy was dropped by
// MarkStale but whose version turned out unchanged (a benign refetch race
// in hierarchical caches). The version is not modified.
func (t *Table) RestoreData(oid ObjectID, data []byte) error {
	o, err := t.lookup(oid)
	if err != nil {
		return err
	}
	o.data = append([]byte(nil), data...)
	return nil
}
