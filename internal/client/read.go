package client

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Read returns the object's data with strong consistency, following Figure
// 4's client read path: serve from cache iff both the volume lease and the
// object lease are valid, renewing whichever is missing first. The returned
// slice is shared; callers must not modify it. It is the cache's own copy of
// that version, so a hit copies and allocates nothing; a later version
// replaces the cache's slice and leaves this one as it was.
func (c *Client) Read(vid core.VolumeID, oid core.ObjectID) ([]byte, error) {
	// A renewal can race with an invalidation or an expiry, so retry the
	// validity check a few times before giving up.
	contacted := false
	for attempt := 0; attempt < 4; attempt++ {
		// The one clock reading of a hit, and a fresh one on every attempt: a
		// deadline is safe only against the time it is now.
		now := c.cfg.Clock.Mono()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClosed
		}
		o := c.cachedLocked(oid)
		objOK := o != nil && o.until > now
		var volOK bool
		if o != nil && o.volume == vid {
			volOK = o.vol.until > now // the hit: no second map lookup
		} else {
			volOK = c.volValidLocked(vid, now)
		}
		if volOK && objOK {
			data := o.data
			if contacted {
				c.serverReads++
			} else {
				c.localReads++
			}
			if c.cfg.Obs.Tracing() {
				// Emitted under c.mu so the audit model observes this read
				// strictly before any invalidation the client acknowledges
				// next (the ack is what releases a pending write). emit
				// stamps it: only a traced hit reads the wall clock.
				c.emit(obs.Event{Type: obs.EvCacheRead, Object: oid, Volume: vid,
					Version: o.version})
			}
			c.mu.Unlock()
			return data, nil
		}
		c.mu.Unlock()

		if !volOK {
			contacted = true
			if err := c.RenewVolume(vid); err != nil {
				return nil, err
			}
		}
		if !objOK {
			contacted = true
			if err := c.renewObject(vid, oid); err != nil {
				return nil, err
			}
		}
	}
	return nil, fmt.Errorf("client: could not hold both leases long enough to read %s/%s (leases shorter than renewal latency?)", vid, oid)
}

// cachedLocked returns oid's cache entry when it holds a copy, nil
// otherwise: the one lookup behind Read, Peek, Cached and Version. The
// caller holds c.mu.
func (c *Client) cachedLocked(oid core.ObjectID) *objState {
	if o := c.objs[oid]; o != nil && o.hasData {
		return o
	}
	return nil
}

// Version reports the cached version of an object, if any.
func (c *Client) Version(oid core.ObjectID) (core.Version, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.cachedLocked(oid)
	if o == nil {
		return 0, false
	}
	return o.version, true
}

// Peek returns the cached copy WITHOUT any consistency check — the
// "application-specific action" the paper mentions for clients that prefer
// possibly-stale data over failing when the server is unreachable. The
// boolean reports whether a copy exists at all. The returned slice is
// shared; callers must not modify it.
func (c *Client) Peek(oid core.ObjectID) ([]byte, bool) {
	data, _, _, ok := c.Cached(oid)
	return data, ok
}

// Write asks the server to modify an object. It blocks for the server's
// invalidate/ack round (the paper's write delay) and reports the new
// version and the server-side wait. When the client's observer has a span
// recorder, the write starts a fresh trace whose context rides the WriteReq
// so the server's root write span becomes a child of this client span.
func (c *Client) Write(oid core.ObjectID, data []byte) (core.Version, time.Duration, error) {
	return c.WriteTraced(oid, data, wire.TraceContext{})
}

// WriteTraced is Write joining an existing trace: tc identifies the span
// that caused this write (a proxy relaying a downstream WriteReq passes the
// downstream's context). A zero tc starts a fresh trace when tracing is
// enabled, and stays untraced otherwise.
func (c *Client) WriteTraced(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	seq, err := c.open()
	if err != nil {
		return 0, 0, err
	}
	defer c.release(seq)

	sr := c.cfg.Obs.SpanRec()
	var (
		spanID, parentID uint64
		spanStart        time.Time
	)
	if sr != nil {
		trace := tc.TraceID
		if trace == 0 {
			trace = sr.NewID()
		}
		parentID = tc.SpanID
		spanID = sr.NewID()
		spanStart = c.cfg.Clock.Now()
		tc = wire.TraceContext{TraceID: trace, SpanID: spanID}
	}

	m, err := c.rpc(seq, wire.WriteReq{Seq: seq, Object: oid, Data: data, Trace: tc})
	if sr != nil {
		sr.Record(obs.Span{Trace: tc.TraceID, ID: spanID, Parent: parentID,
			Kind: obs.SpanClientWrite, Node: string(c.cfg.ID), Client: c.cfg.ID,
			Object: oid, Start: spanStart, Dur: c.cfg.Clock.Now().Sub(spanStart)})
	}
	if err != nil {
		return 0, 0, err
	}
	rep, ok := m.(wire.WriteReply)
	if !ok {
		return 0, 0, fmt.Errorf("client: unexpected %s reply to write", m.Kind())
	}
	return rep.Version, rep.Waited, nil
}

// startSpan begins a fresh trace for a client-initiated operation. It
// returns a nil recorder — the callers' signal to skip recording — when
// tracing is disabled.
func (c *Client) startSpan() (sr *obs.SpanRecorder, traceID, spanID uint64, start time.Time) {
	sr = c.cfg.Obs.SpanRec()
	if sr == nil {
		return nil, 0, 0, time.Time{}
	}
	return sr, sr.NewID(), sr.NewID(), c.cfg.Clock.Now()
}

// anchor is one reading of the client's two clocks, taken when a reply that
// grants leases arrives: where its expiries are moved from the wall timeline
// onto the monotonic one.
type anchor struct {
	mono time.Duration
	wall time.Time
}

// anchorNow samples the clocks, once per received message however many
// leases it carries. The monotonic reading is taken first, so a preemption
// between the two makes the remaining term look shorter, never longer.
func (c *Client) anchorNow() anchor {
	mono := c.cfg.Clock.Mono()
	return anchor{mono: mono, wall: c.cfg.Clock.Now()}
}

// granted is the lease to install for a grant expiring at expire, received
// at a: the term still ahead on the wall clock (the one place the client's
// wall clock is assumed to agree with the server's), less the skew margin,
// laid off from a on the monotonic clock. Every later validity check is one
// comparison against Clock.Mono and never looks at the wall clock again.
func (c *Client) granted(a anchor, expire time.Time) lease {
	return lease{expire: expire, until: a.mono + expire.Sub(a.wall) - c.cfg.Skew}
}

// volValidLocked checks the volume lease under c.mu against a Clock.Mono
// reading.
func (c *Client) volValidLocked(vid core.VolumeID, now time.Duration) bool {
	v, ok := c.vols[vid]
	return ok && v.until > now
}

// volLocked returns vid's volume state, creating it (no lease, epoch
// unknown) on first mention. The caller holds c.mu.
func (c *Client) volLocked(vid core.VolumeID) *volState {
	v := c.vols[vid]
	if v == nil {
		v = &volState{}
		c.vols[vid] = v
	}
	return v
}

// HasVolumeLease reports whether the client currently holds a valid lease
// on the volume.
func (c *Client) HasVolumeLease(vid core.VolumeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.volValidLocked(vid, c.cfg.Clock.Mono())
}

// renewObject runs the REQ_OBJ_LEASE round (Figure 4, "Client requests
// lease for object o"). Each renewal is its own short trace: the span
// measures the full request/reply round trip as seen from the client.
func (c *Client) renewObject(vid core.VolumeID, oid core.ObjectID) error {
	c.mu.Lock()
	ver := core.NoVersion
	if o := c.cachedLocked(oid); o != nil {
		ver = o.version
	}
	gen := c.invalGen[oid]
	c.mu.Unlock()

	seq, err := c.open()
	if err != nil {
		return err
	}
	defer c.release(seq)

	sr, traceID, spanID, spanStart := c.startSpan()
	m, err := c.rpc(seq, wire.ReqObjLease{Seq: seq, Object: oid, Version: ver})
	if sr != nil {
		sr.Record(obs.Span{Trace: traceID, ID: spanID, Kind: obs.SpanRenewObject,
			Node: string(c.cfg.ID), Client: c.cfg.ID, Object: oid, Volume: vid,
			Start: spanStart, Dur: c.cfg.Clock.Now().Sub(spanStart)})
	}
	if err != nil {
		return err
	}
	reply, ok := m.(wire.ObjLease)
	if !ok {
		return fmt.Errorf("client: unexpected %s reply to object lease request", m.Kind())
	}

	at := c.anchorNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.invalGen[oid] != gen {
		// An invalidation overtook this grant in flight: the server has
		// already overwritten (or is overwriting) the version this lease
		// covers, and we acknowledged the drop. Installing the reply would
		// serve stale data under a valid-looking lease, so discard it and
		// let the read path retry with a fresh request.
		return nil
	}
	o, ok := c.objs[oid]
	if !ok {
		o = &objState{}
		c.objs[oid] = o
	}
	o.volume, o.vol = vid, c.volLocked(vid)
	o.lease = c.granted(at, reply.Expire)
	o.version = reply.Version
	if reply.HasData {
		o.data = reply.Data
		o.hasData = true
	} else if !o.hasData {
		// Server said our copy is current but we have none: treat as a
		// protocol anomaly and drop the lease so the next read refetches.
		o.lease = lease{}
		return fmt.Errorf("client: server granted lease on %s without data for an empty cache", oid)
	}
	return nil
}

// RenewVolume runs the volume-lease conversation of Figure 4, transparently
// handling all three server responses: plain grant, queued-invalidation
// delivery, and the full reconnection protocol.
func (c *Client) RenewVolume(vid core.VolumeID) error {
	// Serialize renewals: interleaved multi-round conversations on one
	// volume would confuse both ends.
	c.renewMu.Lock()
	defer c.renewMu.Unlock()

	// Another goroutine may have renewed while we waited.
	if c.HasVolumeLease(vid) {
		return nil
	}

	c.mu.Lock()
	epoch := core.NoEpoch
	if v, ok := c.vols[vid]; ok && v.known {
		epoch = v.epoch
	}
	c.mu.Unlock()

	seq, err := c.open()
	if err != nil {
		return err
	}
	defer c.release(seq)

	// One span covers the whole (possibly multi-round) conversation; N
	// records how many request/reply rounds it took.
	rounds := 0
	sr, traceID, spanID, spanStart := c.startSpan()
	if sr != nil {
		defer func() {
			sr.Record(obs.Span{Trace: traceID, ID: spanID, Kind: obs.SpanRenewVolume,
				Node: string(c.cfg.ID), Client: c.cfg.ID, Volume: vid,
				Start: spanStart, Dur: c.cfg.Clock.Now().Sub(spanStart), N: rounds})
		}()
	}

	m, err := c.rpc(seq, wire.ReqVolLease{Seq: seq, Volume: vid, Epoch: epoch})
	rounds++
	if err != nil {
		return err
	}
	for round := 0; round < 8; round++ {
		switch v := m.(type) {
		case wire.VolLease:
			at := c.anchorNow()
			c.mu.Lock()
			vs := c.volLocked(vid)
			vs.lease, vs.epoch, vs.known = c.granted(at, v.Expire), v.Epoch, true
			c.mu.Unlock()
			return nil

		case wire.InvalRenew:
			c.applyInvalRenew(v)
			m, err = c.rpc(seq, wire.AckInvalidate{Seq: seq, Volume: vid, Objects: v.Invalidate})
			rounds++
			if err != nil {
				return err
			}

		case wire.MustRenewAll:
			held := c.heldObjects(vid)
			c.emit(obs.Event{Type: obs.EvReconnect, Volume: vid, Epoch: v.Epoch, N: len(held)})
			c.logf("reconnecting to volume %s (epoch %d): renewing %d objects", vid, v.Epoch, len(held))
			m, err = c.rpc(seq, wire.RenewObjLeases{Seq: seq, Volume: vid, Held: held})
			rounds++
			if err != nil {
				return err
			}

		default:
			return fmt.Errorf("client: unexpected %s during volume renewal", m.Kind())
		}
	}
	return fmt.Errorf("client: volume renewal for %s did not converge", vid)
}

// applyInvalRenew drops invalidated copies (propagating to the
// OnInvalidate hook) and installs renewed leases.
func (c *Client) applyInvalRenew(v wire.InvalRenew) {
	if c.cfg.Obs.Tracing() {
		for _, oid := range v.Invalidate {
			c.emit(obs.Event{Type: obs.EvInvalRecv, Object: oid, Volume: v.Volume})
		}
	}
	c.dropObjects(v.Invalidate)
	if c.cfg.OnInvalidate != nil && len(v.Invalidate) > 0 {
		// InvalRenew carries no trace context (the renewal conversation is
		// client-initiated), so the hook sees a zero one.
		c.cfg.OnInvalidate(v.Invalidate, wire.TraceContext{})
	}
	at := c.anchorNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range v.Renew {
		o, ok := c.objs[r.Object]
		if !ok || !o.hasData || o.version != r.Version {
			// The server renewed something we do not hold at that version;
			// drop our copy so the next read refetches cleanly.
			if ok {
				o.data = nil
				o.hasData = false
				o.lease = lease{}
			}
			continue
		}
		o.lease = c.granted(at, r.Expire)
	}
}

// heldObjects lists every cached object of the volume with its version, for
// RENEW_OBJ_LEASES. After a server crash all server-side lease state is
// gone, so the client reports everything it caches (a superset of Figure
// 4's expired-lease list; the extra entries simply come back renewed).
func (c *Client) heldObjects(vid core.VolumeID) []core.HeldObject {
	c.mu.Lock()
	defer c.mu.Unlock()
	var held []core.HeldObject
	for oid, o := range c.objs {
		if o.volume == vid && o.hasData {
			held = append(held, core.HeldObject{Object: oid, Version: o.version})
		}
	}
	return held
}

// LeaseInfo reports the client's lease on an object: its cached version, the
// expiry as the server granted it, and trusted, how much longer this client
// will itself serve reads under it — its own monotonic-clock verdict, the skew
// margin already off; zero or negative once the lease has lapsed. ok is false
// when no copy is cached. Hierarchical caches grant a sub-lease only while
// trusted is positive and cap it at expire.
func (c *Client) LeaseInfo(oid core.ObjectID) (version core.Version, expire time.Time, trusted time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.cachedLocked(oid)
	if o == nil {
		return 0, time.Time{}, 0, false
	}
	return o.version, o.expire, o.until - c.cfg.Clock.Mono(), true
}

// Cached reports the cached copy of an object together with the version and
// lease expiry it was granted under, all read at one instant — a
// hierarchical cache installs the copy downstream and must not pair one
// version's data with another's number. ok is false when no copy is cached.
// The returned slice is shared; callers must not modify it.
func (c *Client) Cached(oid core.ObjectID) (data []byte, version core.Version, expire time.Time, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.cachedLocked(oid)
	if o == nil {
		return nil, 0, time.Time{}, false
	}
	return o.data, o.version, o.expire, true
}

// VolumeLeaseInfo reports the client's lease on a volume: expiry as granted,
// epoch, and trusted as in LeaseInfo. ok is false when the client never
// obtained one.
func (c *Client) VolumeLeaseInfo(vid core.VolumeID) (expire time.Time, epoch core.Epoch, trusted time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, found := c.vols[vid]
	if !found || !v.known {
		return time.Time{}, 0, 0, false
	}
	return v.expire, v.epoch, v.until - c.cfg.Clock.Mono(), true
}
