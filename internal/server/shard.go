package server

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// shard is the unit of consistency-state locking: one volume, its own
// core.Table, and the state of its writes in flight. The
// protocol needs no ordering across volumes — a volume lease covers exactly
// one volume and a write's ack bound min(t, t_v) only involves leases on the
// written object and its volume — so each shard can run its lock-step
// independently of every other.
type shard struct {
	vol core.VolumeID

	// mu guards everything below. Operations under it are short and
	// in-memory (the paper's single-threaded event processing, now per
	// volume); a write collecting acknowledgments holds it only while it
	// begins and while it finishes. Lock order: shard.mu may be held while
	// taking Server.connMu, never the reverse.
	mu sync.Mutex
	// table holds this volume's consistency state (exactly one volume per
	// table), the write-time rules included.
	table *core.Table
	// writes holds each write the table has in flight (write.go).
	writes map[core.ObjectID]*write
}

// parkOnWrites releases sh.mu and parks req until the writes in flight on
// oids have finished or, when none has one, until orElse (if set) returns.
func (s *Server) parkOnWrites(cc *clientConn, req wire.Message, sh *shard, orElse func() error, oids ...core.ObjectID) error {
	var done []<-chan struct{}
	for _, oid := range oids {
		if w, ok := sh.writes[oid]; ok {
			done = append(done, w.wait())
		}
	}
	sh.mu.Unlock()
	return s.park(cc, req, func() error {
		for _, ch := range done {
			if err := s.closedOr(ch); err != nil {
				return err
			}
		}
		if len(done) == 0 && orElse != nil {
			return orElse()
		}
		return nil
	})
}

// newShard builds a shard for one volume at the given epoch. The table
// config was validated when the server started, so NewTable cannot fail
// here except for a config mutated after start (a programming error).
func newShard(cfg core.Config, vid core.VolumeID, epoch core.Epoch, fence time.Time) (*shard, error) {
	table, err := core.NewTable(cfg)
	if err != nil {
		return nil, err
	}
	if err := table.CreateVolumeAt(vid, epoch); err != nil {
		return nil, err
	}
	if !fence.IsZero() {
		table.FenceWrites(fence)
	}
	return &shard{vol: vid, table: table, writes: make(map[core.ObjectID]*write)}, nil
}

// shardOf resolves a volume's shard with one atomic load, no lock.
func (s *Server) shardOf(vid core.VolumeID) *shard {
	return (*s.vols.Load())[vid]
}

// shardOfObject resolves an object's shard with one sync.Map load, no lock.
// Object ids are unique across the server's volumes (as in core.Table).
func (s *Server) shardOfObject(oid core.ObjectID) (*shard, error) {
	if v, ok := s.objs.Load(oid); ok {
		return v.(*shard), nil
	}
	return nil, fmt.Errorf("%w: %q", core.ErrNoSuchObject, oid)
}

// allShards snapshots every shard, sorted by volume id. The order is the
// canonical multi-shard lock order (Recover locks all shards at once).
func (s *Server) allShards() []*shard {
	m := *s.vols.Load()
	out := make([]*shard, 0, len(m))
	for _, sh := range m {
		out = append(out, sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].vol < out[j].vol })
	return out
}
