package client

import (
	"sort"

	"repro/internal/state"
)

// StateSnapshot captures what this client believes it holds: every cached
// volume and object lease, stamped at the client's own injected clock. The
// caller (or internal/state.Diff) decides which claims are still live;
// this copy deliberately includes already-expired records so introspection
// can show the full cache, not just the usable part.
func (c *Client) StateSnapshot() state.ClientSnapshot {
	now := c.cfg.Clock.Now()
	c.mu.Lock()
	vols, objs := c.h.Snapshot()
	c.mu.Unlock()
	return state.ClientSnapshot{Client: c.cfg.ID, TakenAt: now, Skew: c.cfg.Skew, Volumes: vols, Objects: objs}
}

// StateSnapshot captures the pool's cached-lease view across every
// connected server: one ClientSnapshot per connection (all sharing the
// pool's identity), each tagged with the server address it talks to.
func (p *Pool) StateSnapshot() state.Dump {
	p.mu.Lock()
	type entry struct {
		addr string
		c    *Client
	}
	entries := make([]entry, 0, len(p.clients))
	for addr, c := range p.clients {
		entries = append(entries, entry{addr, c})
	}
	p.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].addr < entries[j].addr })

	d := state.Dump{
		Role:    state.RoleClient,
		Node:    string(p.cfg.ID),
		Clients: make([]state.ClientSnapshot, 0, len(entries)),
	}
	for _, e := range entries {
		cs := e.c.StateSnapshot()
		cs.Server = e.addr
		if d.TakenAt.IsZero() || cs.TakenAt.After(d.TakenAt) {
			d.TakenAt = cs.TakenAt
		}
		d.Clients = append(d.Clients, cs)
	}
	if d.TakenAt.IsZero() {
		d.TakenAt = p.cfg.Clock.Now()
	}
	return d
}

// StateSource returns a nil-safe snapshot source for the pool, for wiring
// into /debug/leases handlers and lease_state_* gauges.
func (p *Pool) StateSource() *state.Source {
	if p == nil {
		return nil
	}
	return state.NewSource(p.StateSnapshot)
}
