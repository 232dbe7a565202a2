// Package state is the lease-table introspection layer: point-in-time
// snapshots of what a server's sharded lease tables contain and of what a
// client believes it holds, plus a diff engine that classifies divergences
// between the two views.
//
// Every other observability surface in this repo (obs events, the audit
// shadow model, health anomalies, cost tables) is flow-based — it watches
// messages move. This package answers the complementary state question:
// "show me the lease table" and "show me what this client thinks it
// caches", and mechanically checks that the two agree within the protocol's
// ε bound. Snapshots are taken on the injected clock by the owning
// component (server, client pool, proxy); this package itself never reads a
// clock — every filter and gauge is computed relative to the snapshot's own
// TakenAt, so a dump taken on a simulated clock diffs exactly like a live
// one.
//
// Consistency model: a server snapshot is per-shard atomic (each volume's
// state is copied under its shard mutex) but not cross-shard atomic — see
// DESIGN.md §12. The disabled path is nil-safe and allocation-free: a nil
// *Source yields an empty Dump (gated by BenchmarkStateDisabled).
package state

import (
	"time"

	"repro/internal/core"
)

// Roles a Dump can describe.
const (
	RoleServer = "server"
	RoleClient = "client"
	RoleProxy  = "proxy"
)

// ServerSnapshot is the authoritative half of a Dump: every volume's lease
// table (pending write acks included) plus the connection set.
type ServerSnapshot struct {
	TakenAt   time.Time             `json:"taken_at"`
	Connected []core.ClientID       `json:"connected,omitempty"`
	Volumes   []core.VolumeSnapshot `json:"volumes,omitempty"`
}

// ClientSnapshot is what one client believes it holds at TakenAt on its
// own clock. Skew is the client's configured ε: it treats a lease as
// usable only while expire − ε is still in the future.
type ClientSnapshot struct {
	Client  core.ClientID            `json:"client"`
	Server  string                   `json:"server,omitempty"`
	TakenAt time.Time                `json:"taken_at"`
	Skew    time.Duration            `json:"skew_ns"`
	Volumes []core.ClientVolumeLease `json:"volumes,omitempty"`
	Objects []core.ClientObjectLease `json:"objects,omitempty"`
}

// Dump is one node's complete lease-state view: the Server section for
// servers and proxies (a proxy is a server to its downstream), the Clients
// section for client pools and for a proxy's upstream-facing cache.
type Dump struct {
	Role    string           `json:"role"`
	Node    string           `json:"node"`
	TakenAt time.Time        `json:"taken_at"`
	Server  *ServerSnapshot  `json:"server,omitempty"`
	Clients []ClientSnapshot `json:"clients,omitempty"`
}

// Source is a nil-safe handle to a component's snapshot function, mirroring
// the disabled-path convention of obs/cost/health: a nil *Source (state
// introspection off) costs one pointer compare and zero allocations.
type Source struct {
	fn func() Dump
}

// NewSource wraps a snapshot function.
func NewSource(fn func() Dump) *Source {
	if fn == nil {
		return nil
	}
	return &Source{fn: fn}
}

// Snapshot takes a point-in-time dump; on a nil Source it returns an empty
// Dump.
func (s *Source) Snapshot() Dump {
	if s == nil || s.fn == nil {
		return Dump{}
	}
	return s.fn()
}

// Counts are the gauge-ready aggregates of one Dump, every one computed
// relative to the dump's own TakenAt (no clock in this package).
type Counts struct {
	// ObjectLeases and VolumeLeases count valid leases: server-side
	// holder records, or client-side cached leases the client still
	// considers usable.
	ObjectLeases int
	VolumeLeases int
	// Expiring counts leases (object + volume) expiring within the window
	// after TakenAt.
	Expiring int
	// Unreachable counts (volume, client) entries in Unreachable sets.
	Unreachable int
	// UnreachableCached estimates how many unreachable clients may still
	// be caching data: unreachable entries whose client could hold an
	// unexpired object lease (its last-known object-lease expiry, if the
	// server ever granted one, has not provably passed). The server drops
	// its own records when a client goes unreachable, so this is counted
	// from the pending-ack trail: an unreachable client with an ack
	// deadline still in the future at TakenAt provably had a live lease.
	UnreachableCached int
}

// Count aggregates a Dump into Counts, treating leases expiring within
// window after the snapshot's TakenAt as "expiring".
func Count(d Dump, window time.Duration) Counts {
	var c Counts
	if d.Server != nil {
		edge := d.Server.TakenAt.Add(window)
		overdue := make(map[core.ClientID]bool)
		for _, vs := range d.Server.Volumes {
			for _, pa := range vs.PendingAcks {
				if !pa.Deadline.IsZero() && pa.Deadline.After(d.Server.TakenAt) {
					overdue[pa.Client] = true
				}
			}
		}
		for _, vs := range d.Server.Volumes {
			c.VolumeLeases += len(vs.VolumeLeases)
			for _, l := range vs.VolumeLeases {
				if l.Expire.Before(edge) {
					c.Expiring++
				}
			}
			for _, o := range vs.Objects {
				c.ObjectLeases += len(o.Holders)
				for _, l := range o.Holders {
					if l.Expire.Before(edge) {
						c.Expiring++
					}
				}
			}
			c.Unreachable += len(vs.Unreachable)
			for _, u := range vs.Unreachable {
				if overdue[u] {
					c.UnreachableCached++
				}
			}
		}
	}
	for _, cs := range d.Clients {
		edge := cs.TakenAt.Add(window)
		for _, vl := range cs.Volumes {
			if vl.Expire.Add(-cs.Skew).After(cs.TakenAt) {
				c.VolumeLeases++
				if vl.Expire.Before(edge) {
					c.Expiring++
				}
			}
		}
		for _, ol := range cs.Objects {
			if ol.Expire.Add(-cs.Skew).After(cs.TakenAt) {
				c.ObjectLeases++
				if ol.Expire.Before(edge) {
					c.Expiring++
				}
			}
		}
	}
	return c
}
