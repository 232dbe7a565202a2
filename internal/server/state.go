package server

import (
	"sort"

	"repro/internal/core"
	"repro/internal/state"
)

// StateSnapshot captures the server's lease-state view for introspection
// (/debug/leases, lease_state_* gauges, flight-dump freezing). Each volume's
// table, pending acks included, is copied under its shard mutex; shards are
// visited one at a time in sorted order, so a snapshot never stalls the
// write path globally (DESIGN.md §12: the cross-shard skew this trades).
func (s *Server) StateSnapshot() state.Dump {
	now := s.cfg.Clock.Now()
	shards := s.allShards()
	vols := make([]core.VolumeSnapshot, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		vols = append(vols, sh.table.Snapshot(s.cfg.Clock.Now())...) // one volume per shard table
		sh.mu.Unlock()
	}

	s.connMu.Lock()
	connected := make([]core.ClientID, 0, len(s.conns))
	for id := range s.conns {
		connected = append(connected, id)
	}
	s.connMu.Unlock()
	sort.Slice(connected, func(i, j int) bool { return connected[i] < connected[j] })

	return state.Dump{Role: state.RoleServer, Node: s.cfg.Name, TakenAt: now,
		Server: &state.ServerSnapshot{TakenAt: now, Connected: connected, Volumes: vols}}
}

// StateSource returns a nil-safe snapshot source for wiring into
// /debug/leases handlers, gauges, and the flight recorder.
func (s *Server) StateSource() *state.Source {
	return state.NewSource(s.StateSnapshot)
}
