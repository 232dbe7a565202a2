// Package server implements the networked volume-lease server: it drives
// core.Table state (the paper's Figures 2 and 3) over a transport.Network,
// serving lease requests from many concurrent clients, running the
// write/invalidate/acknowledge path, the delayed-invalidation machinery, the
// reconnection protocol for unreachable clients, and epoch-based crash
// recovery.
//
// # One machine, two origins
//
// The same Server runs at every level of a lease hierarchy. What a level
// does not share with the others — where an object's data and version come
// from, how far a lease may extend, what a client's write or a finished
// invalidation round means — is behind the Origin interface (origin.go).
// New builds the top of a hierarchy: the local store is the origin, leases
// run their full table terms and a write installs data here. NewCache
// builds an inner level (internal/proxy): the origin is an upstream lease
// client, every lease granted is capped by the lease this node itself holds
// upstream, and a write is the upstream's invalidation passing through.
// Everything below — connections, renewal conversations, the invalidation
// round — is written once against that interface.
//
// # Concurrency model
//
// The consistency state is sharded per volume: each volume owns a shard with
// its own mutex and its own single-volume core.Table (see shard.go). The
// paper's server processes events single-threaded; volume leases make that
// serialization necessary only *within* a volume — a write's ack bound
// min(t, t_v) involves leases on the written object and its volume, never
// another volume — so shards proceed independently and a write to volume A
// never blocks a write to volume B.
//
// Within a shard, the table decides what a write in flight allows; a
// request it refuses waits for that write's finish (shard.writes) and is
// retried. Writes to distinct objects — even in the same volume — hold the
// shard mutex only for the short in-memory table transitions and collect
// their invalidation acknowledgments concurrently, outside any lock. A write
// in flight is state in its shard (write.go), not a waiting goroutine: a
// client's WriteReq is begun on the connection's reader, and the reader
// that applies its last ack, its deadline timer or Close finishes it and
// sends the reply.
//
// Invalidation fan-out is batched per connection: writes enqueue object ids
// on the target connection's outbound queue, and a per-connection flusher
// goroutine coalesces whatever has accumulated into a single multi-object
// wire.Invalidate. A burst of writes touching one client's cache costs one
// message, not one per write.
//
// One goroutine per client connection reads requests and answers them
// inline unless a request has to wait — for a write in flight on its
// object, for an acknowledgment the client still owes, or for the origin —
// in which case it is parked on a side goroutine and dispatched again when
// the wait is over (park, origin.go), so the reader stays free for
// acknowledgments. Both shard indexes are read lock-free: the volume index
// is an immutable map rebuilt copy-on-write under topoMu by AddVolume, the
// object index a sync.Map stored to by AddObject and by a cache's first
// fetch of an object. Lock order: shard.mu → connMu (never the reverse);
// multi-shard operations (Recover, Stats) take shard mutexes in sorted
// volume order.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
)

// WriteMode selects how long a write waits for invalidation acknowledgments.
type WriteMode int

const (
	// WriteBlocking is the paper's semantics: the write completes only when
	// every notified client has acknowledged or its lease bound
	// (min(volume expiry, object expiry), floored at MsgTimeout) has
	// passed. Strong consistency always holds.
	WriteBlocking WriteMode = iota + 1
	// WriteBestEffort is the extension named in the paper's conclusion:
	// the server sends invalidations but waits at most BestEffortGrace.
	// Clients that do not acknowledge in time are marked unreachable and
	// resynchronize on their next volume renewal, so staleness is bounded
	// by the remaining volume-lease time (≤ t_v) instead of zero.
	WriteBestEffort
)

// Config parameterizes a Server.
type Config struct {
	// Name identifies the server (used as metrics key and volume host).
	Name string
	// Addr is the listen address.
	Addr string
	// Net supplies connectivity (transport.TCP{} in production,
	// transport.Memory in tests).
	Net transport.Network
	// Clock drives lease expiry; defaults to the wall clock.
	Clock clock.Clock
	// Table configures lease durations and the invalidation mode.
	Table core.Config
	// MsgTimeout is Figure 3's msgTimeout: the minimum time a blocking
	// write waits for an acknowledgment even when leases are about to
	// expire. Defaults to 1s.
	MsgTimeout time.Duration
	// WriteMode selects blocking (default) or best-effort writes.
	WriteMode WriteMode
	// BestEffortGrace is the maximum ack wait in WriteBestEffort mode.
	BestEffortGrace time.Duration
	// SweepInterval is how often expired leases are swept. Defaults to the
	// volume lease duration.
	SweepInterval time.Duration
	// StateDir, when set, persists volume epochs and the maximum lease
	// duration across restarts (Section 3.1.2's stable-storage recovery):
	// a restarted server resumes each volume at epoch+1 and fences writes
	// for one previous volume-lease duration.
	StateDir string
	// Obs, when non-nil, receives protocol events and live metrics (see
	// internal/obs). A nil Obs costs the hot paths a single nil check.
	Obs *obs.Observer
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.MsgTimeout <= 0 {
		c.MsgTimeout = time.Second
	}
	if c.WriteMode == 0 {
		c.WriteMode = WriteBlocking
	}
	if c.BestEffortGrace <= 0 {
		c.BestEffortGrace = 50 * time.Millisecond
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.Table.VolumeLease
	}
	if c.Name == "" {
		c.Name = c.Addr
	}
}

// Server is a running volume-lease server.
type Server struct {
	cfg      Config
	listener transport.Listener
	// origin is where objects and lease bounds come from: the local store
	// (New) or an upstream lease client (NewCache).
	origin Origin

	// vols is the immutable volume→shard index, swapped copy-on-write
	// under topoMu; hot paths resolve a shard with one atomic load.
	vols atomic.Pointer[map[core.VolumeID]*shard]
	// objs maps object id → owning shard (object ids are unique across
	// volumes, as in core.Table). sync.Map: lock-free reads, rare writes.
	objs sync.Map

	// topoMu serializes topology changes: AddVolume, AddObject, and the
	// copy-on-write swaps of vols.
	topoMu sync.Mutex

	// connMu guards conns. Lock order: shard.mu → connMu, never reverse.
	connMu sync.Mutex
	conns  map[core.ClientID]*clientConn

	// prevEpochs holds the previous incarnation's persisted epochs; new
	// volumes resume one past them.
	prevEpochs map[core.VolumeID]core.Epoch
	// initFence, when set, is the write fence inherited from a previous
	// incarnation; it is applied to every shard created by AddVolume.
	initFence time.Time

	// om holds pre-resolved observability metrics; nil when not wired.
	om *srvMetrics

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// errClosed is returned by writes interrupted by server shutdown.
var errClosed = errors.New("server: closed")

// New builds and starts a server that owns its objects, listening on
// cfg.Addr.
func New(cfg Config) (*Server, error) {
	s, err := build(cfg, roleServer)
	if err != nil {
		return nil, err
	}
	s.origin = local{s}
	s.run()
	return s, nil
}

// NewCache builds and starts a single-volume server whose objects come from
// an upstream origin: one level of a lease hierarchy (internal/proxy). The
// volume starts at the given epoch. origin is called once the server exists
// — an upstream origin needs it to run invalidation rounds (WriteTraced) —
// and before the first connection is accepted.
func NewCache(cfg Config, vid core.VolumeID, epoch core.Epoch, origin func(*Server) Origin) (*Server, error) {
	s, err := build(cfg, roleProxy)
	if err != nil {
		return nil, err
	}
	sh, err := newShard(s.cfg.Table, vid, epoch, time.Time{})
	if err != nil {
		s.listener.Close()
		return nil, err
	}
	s.vols.Store(&map[core.VolumeID]*shard{vid: sh})
	s.origin = origin(s)
	s.run()
	return s, nil
}

// build validates cfg and binds the listener; nothing is accepted until run.
func build(cfg Config, r role) (*Server, error) {
	cfg.fillDefaults()
	// Validate the table configuration up front, exactly as a monolithic
	// table would; per-volume shard tables share the validated config.
	if _, err := core.NewTable(cfg.Table); err != nil {
		return nil, err
	}
	if cfg.Net == nil {
		return nil, errors.New("server: Config.Net is required")
	}
	l, err := cfg.Net.Listen(cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		listener:   l,
		conns:      make(map[core.ClientID]*clientConn),
		prevEpochs: make(map[core.VolumeID]core.Epoch),
		closed:     make(chan struct{}),
	}
	empty := make(map[core.VolumeID]*shard)
	s.vols.Store(&empty)
	if cfg.StateDir != "" {
		if err := s.initPersistence(); err != nil {
			l.Close()
			return nil, err
		}
	}
	s.initObs(r)
	return s, nil
}

// run starts admitting connections and sweeping expired leases.
func (s *Server) run() {
	s.wg.Add(2)
	go s.acceptLoop()
	go s.sweepLoop()
}

// Addr reports the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// Close stops the server and closes every client connection.
func (s *Server) Close() error {
	s.closeMu.Do(func() {
		close(s.closed)
		s.listener.Close()
		s.connMu.Lock()
		for _, cc := range s.conns {
			cc.conn.Close()
		}
		s.connMu.Unlock()
		s.finishWrites()
	})
	s.wg.Wait()
	return nil
}

// logf logs when a logger is configured.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("server %s: "+format, append([]any{s.cfg.Name}, args...)...)
	}
}

// AddVolume registers a volume as a new shard. With StateDir configured, a
// volume known to a previous incarnation resumes at its persisted epoch + 1,
// so clients holding pre-crash leases are forced through the reconnection
// protocol.
func (s *Server) AddVolume(vid core.VolumeID) error {
	s.topoMu.Lock()
	cur := *s.vols.Load()
	if _, exists := cur[vid]; exists {
		s.topoMu.Unlock()
		return fmt.Errorf("%w: volume %q", core.ErrDuplicate, vid)
	}
	epoch := core.Epoch(0)
	if prev, ok := s.prevEpochs[vid]; ok {
		epoch = prev + 1
	}
	sh, err := newShard(s.cfg.Table, vid, epoch, s.initFence)
	if err != nil {
		s.topoMu.Unlock()
		return err
	}
	next := make(map[core.VolumeID]*shard, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[vid] = sh
	s.vols.Store(&next)
	s.topoMu.Unlock()
	s.registerVolumeObs(vid)
	return s.persistEpochs()
}

// AddObject registers an object with initial contents.
func (s *Server) AddObject(vid core.VolumeID, oid core.ObjectID, data []byte) error {
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	sh := s.shardOf(vid)
	if sh == nil {
		return fmt.Errorf("%w: %q", core.ErrNoSuchVolume, vid)
	}
	// Object ids are unique server-wide; the per-shard table only checks
	// its own volume, so the cross-volume check lives here.
	if _, taken := s.objs.Load(oid); taken {
		return fmt.Errorf("%w: object %q", core.ErrDuplicate, oid)
	}
	sh.mu.Lock()
	err := sh.table.CreateObject(vid, oid, data)
	sh.mu.Unlock()
	if err != nil {
		return err
	}
	s.objs.Store(oid, sh)
	return nil
}

// Stats snapshots the consistency-state statistics, aggregated across
// shards. Each shard's snapshot is internally consistent; the aggregate is
// not a single instant (shards are read one at a time).
func (s *Server) Stats() core.Stats {
	now := s.cfg.Clock.Now()
	var agg core.Stats
	for _, sh := range s.allShards() {
		sh.mu.Lock()
		agg.Add(sh.table.Stats(now))
		sh.mu.Unlock()
	}
	return agg
}

// Epoch reports a volume's current epoch.
func (s *Server) Epoch(vid core.VolumeID) (core.Epoch, error) {
	sh := s.shardOf(vid)
	if sh == nil {
		return 0, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, vid)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.table.VolumeEpoch(vid)
}

// Recover simulates a crash-reboot (Section 3.1.2): every connection is
// dropped, all lease state is lost, epochs are bumped, and writes are fenced
// for one volume-lease duration. All shard mutexes are held together (in
// sorted volume order) so no grant at the old epoch can interleave with the
// bump.
func (s *Server) Recover() {
	now := s.cfg.Clock.Now()
	shards := s.allShards()
	for _, sh := range shards {
		sh.mu.Lock()
	}
	// Drop every connection: detach them from the conn table under the
	// locks (so no new work routes to them), but do the network teardown —
	// Close flushes the socket — only after the shard mutexes are released.
	s.connMu.Lock()
	dropped := make([]transport.Conn, 0, len(s.conns))
	for id, cc := range s.conns {
		dropped = append(dropped, cc.conn)
		delete(s.conns, id)
	}
	s.connMu.Unlock()
	var fence time.Time
	for _, sh := range shards {
		sh.table.Recover(now)
		if f := sh.table.WriteFence(); f.After(fence) {
			fence = f
		}
		// Epoch events are emitted under the shard mutex so the audit model
		// resets its reachability bookkeeping before any post-recovery grant.
		if ep, err := sh.table.VolumeEpoch(sh.vol); err == nil {
			s.emit(obs.Event{Type: obs.EvEpochBump, Volume: sh.vol, Epoch: ep})
		}
	}
	for i := len(shards) - 1; i >= 0; i-- {
		sh := shards[i]
		sh.mu.Unlock()
	}
	for _, conn := range dropped {
		conn.Close()
	}
	if s.om != nil {
		s.om.epochBumps.Add(int64(len(shards)))
	}
	s.logf("recovered: epochs bumped, writes fenced until %v", fence)
	if err := s.persistEpochs(); err != nil {
		s.logf("persist after recover: %v", err)
	}
}

// Read returns an object's current version and data directly from the
// server (a local, always-consistent read). The returned slice is shared;
// callers must not modify it. A later write replaces the server's slice and
// leaves this one as it was.
func (s *Server) Read(oid core.ObjectID) (core.Version, []byte, error) {
	sh, err := s.shardOfObject(oid)
	if err != nil {
		return 0, nil, err
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.table.Read(oid)
}

// acceptLoop admits client connections.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				s.logf("accept: %v", err)
				return
			}
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// sweepLoop periodically expires leases and applies the inactive-discard
// policy, one shard at a time.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.closed:
			return
		case <-s.cfg.Clock.After(s.cfg.SweepInterval):
			now := s.cfg.Clock.Now()
			total := 0
			for _, sh := range s.allShards() {
				sh.mu.Lock()
				swept, discarded := sh.table.Sweep(now)
				// Discard transitions are emitted under the shard mutex so
				// the audit model orders them against grants: a client the
				// sweep just dropped must be Unreachable before any later
				// write or reconnection in this volume.
				for _, d := range discarded {
					s.emit(obs.Event{Type: obs.EvUnreachable, Client: d.Client, Volume: d.Volume, At: now})
				}
				sh.mu.Unlock()
				total += swept
			}
			if total > 0 {
				if s.om != nil {
					s.om.expired.Add(int64(total))
				}
				s.emit(obs.Event{Type: obs.EvLeaseExpire, N: total})
			}
		}
	}
}

// VolumeStats snapshots the consistency-state statistics of one volume.
func (s *Server) VolumeStats(vid core.VolumeID) (core.Stats, error) {
	sh := s.shardOf(vid)
	if sh == nil {
		return core.Stats{}, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, vid)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.table.VolumeStats(s.cfg.Clock.Now(), vid)
}
