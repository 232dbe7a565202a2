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
		data, version, volOK, objOK := c.h.Check(vid, oid, now)
		if volOK && objOK {
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
					Version: version})
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

// Peek returns the cached copy WITHOUT any consistency check — the
// "application-specific action" the paper mentions for clients that prefer
// possibly-stale data over failing when the server is unreachable. The
// boolean reports whether a copy exists at all. The returned slice is
// shared; callers must not modify it.
func (c *Client) Peek(oid core.ObjectID) ([]byte, bool) {
	data, _, _, _, ok := c.Cached(oid)
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

// anchorNow samples the clocks for a core.Holder install, as core.Anchor asks.
func (c *Client) anchorNow() core.Anchor {
	mono := c.cfg.Clock.Mono()
	return core.Anchor{Mono: mono, Wall: c.cfg.Clock.Now()}
}

// HasVolumeLease reports whether the client currently holds a valid lease
// on the volume.
func (c *Client) HasVolumeLease(vid core.VolumeID) bool {
	_, _, trusted, ok := c.VolumeLeaseInfo(vid)
	return ok && trusted > 0
}

// renewObject runs the REQ_OBJ_LEASE round (Figure 4, "Client requests
// lease for object o"). Each renewal is its own short trace: the span
// measures the full request/reply round trip as seen from the client.
func (c *Client) renewObject(vid core.VolumeID, oid core.ObjectID) error {
	c.mu.Lock()
	ver, token := c.h.Begin(oid)
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
	// A grant an invalidation overtook is dropped here; the read path then
	// retries with a fresh request.
	return c.h.GrantObject(token, vid, core.ObjectGrant{Object: oid, Version: reply.Version,
		Expire: reply.Expire, Data: reply.Data}, reply.HasData, at)
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
	epoch := c.h.Epoch(vid)
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
			c.h.GrantVolume(vid, v.Epoch, v.Expire, at)
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
			c.mu.Lock()
			held := c.h.Held(vid)
			c.mu.Unlock()
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
	// InvalRenew carries no trace context (the renewal conversation is
	// client-initiated), so the hook sees a zero one.
	c.invalidate(v.Invalidate, v.Volume, wire.TraceContext{})
	at := c.anchorNow()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range v.Renew {
		c.h.RenewObject(r.Object, r.Version, r.Expire, at)
	}
}

// Cached reports the cached copy of an object together with the version and
// lease expiry it was granted under, all read at one instant — a
// hierarchical cache installs the copy downstream and must not pair one
// version's data with another's number — and trusted, how much longer this
// client will itself serve reads under the lease: its own monotonic-clock
// verdict, the skew margin already off; zero or negative once the lease has
// lapsed. ok is false when no copy is cached. Hierarchical caches grant a
// sub-lease only while trusted is positive and cap it at expire. The
// returned slice is shared; callers must not modify it.
func (c *Client) Cached(oid core.ObjectID) (data []byte, version core.Version, expire time.Time, trusted time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	data, version, expire, until, ok := c.h.Object(oid)
	if !ok {
		return nil, 0, time.Time{}, 0, false
	}
	return data, version, expire, until - c.cfg.Clock.Mono(), true
}

// VolumeLeaseInfo reports the client's lease on a volume: expiry as granted,
// epoch, and trusted as in Cached. ok is false when the client never
// obtained one.
func (c *Client) VolumeLeaseInfo(vid core.VolumeID) (expire time.Time, epoch core.Epoch, trusted time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	expire, epoch, until, ok := c.h.Volume(vid)
	if !ok {
		return time.Time{}, 0, 0, false
	}
	return expire, epoch, until - c.cfg.Clock.Mono(), true
}
