// Package proxy implements a hierarchical volume-lease cache: a node that
// is simultaneously a client of an upstream (origin) volume-lease server
// and a lease-granting server for its own downstream clients. Hierarchies
// are the paper's motivating deployment ("aggressive caching or replication
// hierarchies" — Section 1); the composition rule that makes them safe is:
//
//	a sub-lease granted downstream never outlives the corresponding
//	upstream lease:
//	  - downstream volume sub-leases expire no later than the proxy's
//	    upstream volume lease, and
//	  - downstream object sub-leases expire no later than the proxy's
//	    upstream object lease.
//
// With that rule, a downstream read under valid sub-leases implies the
// proxy's upstream leases are also valid, so the origin could not have
// completed an unnotified write — strong consistency holds end to end. The
// paper's fault-tolerance bound also composes: if the proxy or any client
// becomes unreachable, every lease on the path expires within min(t, t_v)
// and the origin's write proceeds.
//
// A Proxy is composed, not re-implemented: downstream it is a
// server.Server — the same connection layer, lease conversations and
// invalidation round that leased runs — and upstream it is a client.Client.
// What joins them is the server's Origin seam, implemented here: before a
// grant the proxy's copy must be backed by a live upstream lease (fetched or
// renewed off the connection's reader when it is not; "live" is the upstream
// client's verdict on its own monotonic clock), every expiry that leaves the
// node is capped at the upstream expiry minus Skew, and downstream writes are
// forwarded upstream.
//
// When the origin invalidates an object, the proxy runs the server's
// invalidation round against its own downstream holders and collects their
// acknowledgments BEFORE acknowledging upstream (the
// client.Config.OnInvalidate hook), so the origin's write completes only
// after the entire subtree dropped the data. The round ends by dropping the
// proxy's copy instead of installing new data: the next request refetches.
//
// The proxy's object versions mirror the origin's exactly
// (core.InstallVersion), so version comparisons remain meaningful across
// proxy restarts; a restarted proxy also starts a fresh downstream epoch
// (derived from its boot time), forcing every returning client through the
// reconnection protocol.
package proxy

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Config parameterizes a Proxy.
type Config struct {
	// ID is the proxy's identity toward the origin.
	ID core.ClientID
	// Addr is the downstream listen address.
	Addr string
	// Net supplies connectivity for both sides.
	Net transport.Network
	// Upstream is the origin server's address.
	Upstream string
	// Volume is the volume this proxy serves. (One proxy instance serves
	// one volume; run several for several volumes.)
	Volume core.VolumeID
	// SubObjectLease / SubVolumeLease are the nominal durations of the
	// leases granted downstream; actual grants are additionally capped by
	// the proxy's upstream leases.
	SubObjectLease time.Duration
	SubVolumeLease time.Duration
	// Skew is the safety margin subtracted from upstream expiries before
	// granting against them. Defaults to 20ms.
	Skew time.Duration
	// MsgTimeout is the minimum time the proxy waits for downstream
	// invalidation acks. Defaults to 1s.
	MsgTimeout time.Duration
	// StartupFence delays upstream invalidation acknowledgments for this
	// long after boot: a restarted proxy cannot vouch that sub-leases
	// granted by its previous incarnation have expired until one upstream
	// volume-lease duration has passed (Section 3.1.2 applied one level
	// down). Set it to the upstream volume-lease duration.
	StartupFence time.Duration
	// Clock defaults to the wall clock.
	Clock clock.Clock
	// Obs, when non-nil, receives protocol events and live metrics for both
	// of the proxy's roles (it is shared with the embedded upstream client).
	// A nil Obs costs the hot paths a single nil check.
	Obs *obs.Observer
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Skew <= 0 {
		c.Skew = 20 * time.Millisecond
	}
	if c.MsgTimeout <= 0 {
		c.MsgTimeout = time.Second
	}
}

// Proxy is a running hierarchical cache node.
type Proxy struct {
	cfg   Config
	srv   *server.Server // the downstream half
	up    *client.Client // the upstream half
	fence time.Time      // no upstream acks before this

	// known marks objects whose copy in the server's table currently
	// mirrors the upstream client's cache. Guarded by the server's shard
	// mutex: it is touched only from the Origin methods called with it held.
	known map[core.ObjectID]bool

	closed  chan struct{}
	closeMu sync.Once
}

// New connects to the origin and starts serving downstream.
func New(cfg Config) (*Proxy, error) {
	cfg.fillDefaults()
	switch {
	case cfg.ID == "":
		return nil, errors.New("proxy: Config.ID is required")
	case cfg.Net == nil:
		return nil, errors.New("proxy: Config.Net is required")
	case cfg.Upstream == "":
		return nil, errors.New("proxy: Config.Upstream is required")
	case cfg.Volume == "":
		return nil, errors.New("proxy: Config.Volume is required")
	case cfg.SubObjectLease <= 0 || cfg.SubVolumeLease <= 0:
		return nil, errors.New("proxy: sub-lease durations must be positive")
	}
	p := &Proxy{
		cfg:    cfg,
		known:  make(map[core.ObjectID]bool),
		closed: make(chan struct{}),
		fence:  cfg.Clock.Now().Add(cfg.StartupFence),
	}
	up, err := client.Dial(cfg.Net, cfg.Upstream, client.Config{
		ID:           cfg.ID,
		Clock:        cfg.Clock,
		Skew:         cfg.Skew,
		Redial:       true,
		OnInvalidate: p.onUpstreamInvalidate,
		Obs:          cfg.Obs,
		Logf:         cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("proxy: dial upstream: %w", err)
	}
	p.up = up
	// A boot-unique epoch forces clients of any previous incarnation
	// through the reconnection protocol.
	bootEpoch := core.Epoch(cfg.Clock.Now().Unix())
	_, err = server.NewCache(server.Config{
		Name:  string(cfg.ID),
		Addr:  cfg.Addr,
		Net:   cfg.Net,
		Clock: cfg.Clock,
		Table: core.Config{
			ObjectLease: cfg.SubObjectLease,
			VolumeLease: cfg.SubVolumeLease,
			Mode:        core.ModeEager,
		},
		MsgTimeout: cfg.MsgTimeout,
		Obs:        cfg.Obs,
		Logf:       cfg.Logf,
	}, cfg.Volume, bootEpoch, func(s *server.Server) server.Origin {
		p.srv = s
		return (*upstream)(p)
	})
	if err != nil {
		up.Close()
		return nil, err
	}
	return p, nil
}

// Addr reports the downstream listen address.
func (p *Proxy) Addr() string { return p.srv.Addr() }

// Close stops the proxy.
func (p *Proxy) Close() error {
	p.closeMu.Do(func() { close(p.closed) })
	p.srv.Close()
	return p.up.Close()
}

func (p *Proxy) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf("proxy %s: "+format, append([]any{p.cfg.ID}, args...)...)
	}
}

// Stats snapshots the downstream consistency state.
func (p *Proxy) Stats() core.Stats { return p.srv.Stats() }

// StateSnapshot captures the proxy's two-faced lease state: the Server
// section is the downstream sub-lease table (this node as lease server),
// the Clients section is its upstream-facing cache (this node as lease
// client), snapshotted separately on the same clock.
func (p *Proxy) StateSnapshot() state.Dump {
	d := p.srv.StateSnapshot()
	d.Role = state.RoleProxy
	up := p.up.StateSnapshot()
	up.Server = p.cfg.Upstream
	d.Clients = []state.ClientSnapshot{up}
	return d
}

// StateSource returns a nil-safe snapshot source for wiring into
// /debug/leases and the lease_state_* gauges.
func (p *Proxy) StateSource() *state.Source {
	return state.NewSource(p.StateSnapshot)
}

// onUpstreamInvalidate is the heart of the hierarchy: the origin is about
// to complete a write and our acknowledgment is the subtree's promise that
// nobody below can read the old data. Run the server's invalidation round
// for every object named — together, so they share each downstream
// connection's Invalidate frame and one slow leaf is waited out once — and
// only then return: the client library sends the upstream ack after this
// hook. tc is the originating write's trace context; each round's spans
// join it and the downstream invalidations carry it onward, re-parented on
// this node's fan-out span.
func (p *Proxy) onUpstreamInvalidate(objects []core.ObjectID, tc wire.TraceContext) {
	if len(objects) == 0 {
		return
	}
	// Startup fence: a fresh incarnation cannot vouch for sub-leases its
	// predecessor granted until they have provably expired.
	if wait := p.fence.Sub(p.cfg.Clock.Now()); wait > 0 {
		p.logf("holding upstream ack %v for the startup fence", wait)
		select {
		case <-p.cfg.Clock.After(wait):
		case <-p.closed:
			return
		}
	}
	var wg sync.WaitGroup
	for _, oid := range objects[1:] {
		wg.Add(1)
		go func(oid core.ObjectID) {
			defer wg.Done()
			p.round(oid, tc)
		}(oid)
	}
	p.round(objects[0], tc)
	wg.Wait()
}

// round runs the downstream invalidation round for one object. The round
// moves non-responders to the Unreachable set itself; an error means there
// was nothing to invalidate (a copy fetched but never installed) or the
// proxy is closing.
func (p *Proxy) round(oid core.ObjectID, tc wire.TraceContext) {
	if _, _, err := p.srv.WriteTraced(oid, nil, tc); err != nil {
		p.logf("downstream invalidation of %s: %v", oid, err)
	}
}

// upstream is the Proxy seen as its server's Origin: objects and lease
// bounds come from the upstream client.
type upstream Proxy

// ObjectBound vouches for the proxy's copy of oid only while it mirrors an
// upstream copy held under a live lease, and bounds the sub-lease by that
// lease.
func (u *upstream) ObjectBound(oid core.ObjectID) (time.Time, bool) {
	if !u.known[oid] {
		return time.Time{}, false
	}
	_, _, expire, trusted, ok := u.up.Cached(oid)
	return u.live(expire, trusted, ok)
}

// VolumeBound bounds a volume sub-lease by the upstream volume lease.
func (u *upstream) VolumeBound(vid core.VolumeID) (time.Time, bool) {
	expire, _, trusted, ok := u.up.VolumeLeaseInfo(vid)
	return u.live(expire, trusted, ok)
}

// live turns an upstream lease into a sub-lease bound. Whether it is usable
// is the upstream client's own verdict — trusted time left on its monotonic
// clock, the same Skew already taken off — so the proxy grants against a
// lease exactly as long as it would itself read under it. The bound is the
// wall expiry, Skew earlier: what goes on the wire is still an instant.
func (u *upstream) live(expire time.Time, trusted time.Duration, held bool) (time.Time, bool) {
	return expire.Add(-u.cfg.Skew), held && trusted > 0
}

// Fetch reads oid through the upstream client, acquiring or renewing the
// upstream leases.
func (u *upstream) Fetch(oid core.ObjectID) (core.VolumeID, error) {
	if _, err := u.up.Read(u.cfg.Volume, oid); err != nil {
		return "", fmt.Errorf("proxy: upstream fetch: %w", err)
	}
	return u.cfg.Volume, nil
}

// Install mirrors the upstream client's copy of oid, version number
// included (so version comparisons stay meaningful across proxy restarts),
// into the downstream table. Cached and Table.Read both hand back shared
// slices, so the table's copy-in is the only copy made here. An upstream
// invalidation that landed since Fetch has dropped the copy: then nothing is
// installed, ObjectBound still cannot vouch, and the request goes round again.
func (u *upstream) Install(t *core.Table, oid core.ObjectID) error {
	data, version, _, _, ok := u.up.Cached(oid)
	if !ok {
		return nil
	}
	cur, _, err := t.Read(oid)
	switch {
	case err != nil:
		// First sighting.
		err = t.CreateObjectAt(u.cfg.Volume, oid, data, version)
	case version > cur:
		err = t.InstallVersion(u.cfg.Clock.Now(), oid, data, version, nil)
	case version == cur:
		// Same version: restore the data Finish dropped (a benign re-fetch
		// race).
		err = t.RestoreData(oid, data)
	default:
		err = fmt.Errorf("proxy: upstream version %d behind local %d for %q", version, cur, oid)
	}
	if err == nil {
		u.known[oid] = true
	}
	return err
}

func (u *upstream) RenewVolume(vid core.VolumeID) error {
	if err := u.up.RenewVolume(vid); err != nil {
		return fmt.Errorf("proxy: upstream unavailable: %w", err)
	}
	return nil
}

// Write forwards a downstream write to the origin, on a goroutine of its
// own: the upstream RPC blocks, and the reader that calls Write must not.
// The origin's invalidation round trips back through onUpstreamInvalidate
// before the write completes, so by the time the reply arrives the whole
// subtree is consistent.
func (u *upstream) Write(oid core.ObjectID, data []byte, tc wire.TraceContext, done func(core.Version, time.Duration, error)) error {
	go func() {
		version, waited, err := u.up.WriteTraced(oid, data, tc)
		if err != nil {
			err = fmt.Errorf("proxy: upstream write: %w", err)
		}
		done(version, waited, err)
	}()
	return nil
}

// Finish drops the proxy's copy (the version is learned from upstream on
// the next fetch) and remembers clients that provably missed the
// invalidation.
func (u *upstream) Finish(t *core.Table, now time.Time, plan core.WritePlan, _ []byte, unacked []core.ClientID) (core.Version, error) {
	u.known[plan.Object] = false
	return 0, t.MarkStale(now, plan.Object, unacked)
}
