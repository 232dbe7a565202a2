package core

import (
	"sort"
	"time"
)

// This file is the table's introspection surface (used by internal/state):
// a deep, JSON-ready copy of one table's consistency state at an instant on
// the injected clock. The snapshot reports the protocol's EFFECTIVE view,
// not the raw maps: expired leases are omitted, and so are leases held by
// clients in the volume's Unreachable set (FinishWrite marks a client
// unreachable without scrubbing its other object leases — those records are
// protocol-dead and removed lazily by BeginWrite/Sweep, so surfacing them
// here would report a client as both caching and unreachable).

// LeaseSnapshot is one client's valid lease on an object or a volume.
type LeaseSnapshot struct {
	Client  ClientID  `json:"client"`
	Granted time.Time `json:"granted"`
	Expire  time.Time `json:"expire"`
}

// ObjectSnapshot is one object and its valid lease holders.
type ObjectSnapshot struct {
	Object  ObjectID        `json:"object"`
	Version Version         `json:"version"`
	Holders []LeaseSnapshot `json:"holders,omitempty"`
}

// InactiveSnapshot is one Inactive-set entry: a client whose volume lease
// expired, with its queued (pending) invalidations.
type InactiveSnapshot struct {
	Client  ClientID   `json:"client"`
	Since   time.Time  `json:"since"`
	Pending []ObjectID `json:"pending,omitempty"`
}

// PendingAck is an outstanding write invalidation: the write of Object
// waits for Client's ack until Deadline, the client's lease bound.
type PendingAck struct {
	Client   ClientID  `json:"client"`
	Object   ObjectID  `json:"object"`
	Deadline time.Time `json:"deadline,omitempty"`
}

// VolumeSnapshot is the full consistency state of one volume at TakenAt.
type VolumeSnapshot struct {
	Volume       VolumeID           `json:"volume"`
	Epoch        Epoch              `json:"epoch"`
	TakenAt      time.Time          `json:"taken_at"`
	WriteFence   time.Time          `json:"write_fence,omitempty"`
	VolumeLeases []LeaseSnapshot    `json:"volume_leases,omitempty"`
	Objects      []ObjectSnapshot   `json:"objects,omitempty"`
	Unreachable  []ClientID         `json:"unreachable,omitempty"`
	Inactive     []InactiveSnapshot `json:"inactive,omitempty"`
	PendingAcks  []PendingAck       `json:"pending_acks,omitempty"`
}

// Snapshot deep-copies the table's effective lease state at now, sorted by
// volume, object, and client so output is deterministic. Only valid leases
// appear (expire > now, holder not unreachable); the returned slices share
// no memory with the table.
func (t *Table) Snapshot(now time.Time) []VolumeSnapshot {
	out := make([]VolumeSnapshot, 0, len(t.volumes))
	for _, v := range t.volumes {
		vs := VolumeSnapshot{
			Volume:  v.id,
			Epoch:   v.epoch,
			TakenAt: now,
		}
		if t.writeFence.After(now) {
			vs.WriteFence = t.writeFence
		}
		vs.VolumeLeases = snapshotLeases(v.at, v.unreachable, now)
		vs.Objects = make([]ObjectSnapshot, 0, len(v.objects))
		for _, o := range v.objects {
			vs.Objects = append(vs.Objects, ObjectSnapshot{
				Object:  o.id,
				Version: o.version,
				Holders: snapshotLeases(o.at, v.unreachable, now),
			})
			for c, bound := range o.owed { // nil unless a write is in flight
				vs.PendingAcks = append(vs.PendingAcks, PendingAck{Client: c, Object: o.id, Deadline: bound})
			}
		}
		sort.Slice(vs.PendingAcks, func(i, j int) bool {
			a, b := vs.PendingAcks[i], vs.PendingAcks[j]
			return a.Client < b.Client || (a.Client == b.Client && a.Object < b.Object)
		})
		sort.Slice(vs.Objects, func(i, j int) bool { return vs.Objects[i].Object < vs.Objects[j].Object })
		if len(v.unreachable) > 0 {
			vs.Unreachable = make([]ClientID, 0, len(v.unreachable))
			for c := range v.unreachable {
				vs.Unreachable = append(vs.Unreachable, c)
			}
			sort.Slice(vs.Unreachable, func(i, j int) bool { return vs.Unreachable[i] < vs.Unreachable[j] })
		}
		if len(v.inactive) > 0 {
			vs.Inactive = make([]InactiveSnapshot, 0, len(v.inactive))
			for c, ia := range v.inactive {
				vs.Inactive = append(vs.Inactive, InactiveSnapshot{
					Client:  c,
					Since:   ia.since,
					Pending: sortedObjects(ia.pending),
				})
			}
			sort.Slice(vs.Inactive, func(i, j int) bool { return vs.Inactive[i].Client < vs.Inactive[j].Client })
		}
		out = append(out, vs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Volume < out[j].Volume })
	return out
}

// snapshotLeases copies the valid, reachable subset of an at-set, sorted by
// client.
func snapshotLeases(at map[ClientID]lease, unreachable map[ClientID]struct{}, now time.Time) []LeaseSnapshot {
	if len(at) == 0 {
		return nil
	}
	out := make([]LeaseSnapshot, 0, len(at))
	for c, l := range at {
		if !l.valid(now) {
			continue
		}
		if _, gone := unreachable[c]; gone {
			continue
		}
		out = append(out, LeaseSnapshot{Client: c, Granted: l.granted, Expire: l.expire})
	}
	if len(out) == 0 {
		return nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Client < out[j].Client })
	return out
}
