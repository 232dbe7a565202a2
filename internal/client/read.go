package client

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Read returns the object's data with strong consistency, following Figure
// 4's client read path as the holder's core.Read steps it: serve from cache
// iff both the volume lease and the object lease are valid, renewing
// whichever is missing first. The returned slice is shared; callers must not
// modify it. It is the cache's own copy of that version, so a hit copies and
// allocates nothing; a later version replaces the cache's slice and leaves
// this one as it was.
func (c *Client) Read(vid core.VolumeID, oid core.ObjectID) ([]byte, error) {
	// The one clock reading of a hit.
	now := c.cfg.Clock.Mono()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// A hit is the holder's read test alone, as the first check of its
	// core.Read would be; the Read is opened on a miss only, so a hit
	// neither builds nor returns one.
	data, version, volOK, objOK := c.h.Check(vid, oid, now)
	if volOK && objOK {
		c.localReads++
	} else {
		var err error
		if data, version, err = c.readMiss(vid, oid, now); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.serverReads++
	}
	if c.cfg.Obs.Tracing() {
		// Emitted under c.mu so the audit model observes this read strictly
		// before any invalidation the client acknowledges next (the ack is
		// what releases a pending write). emit stamps it: only a traced hit
		// reads the wall clock.
		c.emit(obs.Event{Type: obs.EvCacheRead, Object: oid, Volume: vid, Version: version})
	}
	c.mu.Unlock()
	return data, nil
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
// version and the server-side wait. When tracing is live, the write starts a
// fresh trace whose context rides the WriteReq, so the server's write record
// becomes a child of this client's.
func (c *Client) Write(oid core.ObjectID, data []byte) (core.Version, time.Duration, error) {
	return c.WriteTraced(oid, data, wire.TraceContext{})
}

// WriteTraced is Write joining an existing trace: tc identifies the record
// that caused this write (a proxy relaying a downstream WriteReq passes the
// downstream's context). A zero tc starts a fresh trace when tracing is
// live; without tracing the request carries no context.
func (c *Client) WriteTraced(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	cl, err := c.open()
	if err != nil {
		return 0, 0, err
	}
	defer c.release(cl)

	rec, start := c.startPhase(obs.EvClientWrite, tc)
	rec.Object = oid
	m, err := c.rpc(cl, wire.WriteReq{Seq: cl.seq, Object: oid, Data: data,
		Trace: wire.TraceContext{TraceID: rec.Trace, SpanID: rec.Span}})
	c.endPhase(rec, start)
	if err != nil {
		return 0, 0, err
	}
	rep, ok := m.(wire.WriteReply)
	if !ok {
		return 0, 0, fmt.Errorf("client: unexpected %s reply to write", m.Kind())
	}
	return rep.Version, rep.Waited, nil
}

// startPhase opens the record of one timed phase of typ, in tc's trace or,
// when tc names none, a fresh one. Without tracing the record stays zero and
// no clock is read.
func (c *Client) startPhase(typ obs.EventType, tc wire.TraceContext) (rec obs.Event, start time.Time) {
	if !c.cfg.Obs.Tracing() {
		return obs.Event{}, time.Time{}
	}
	rec = obs.Event{Type: typ, Trace: tc.TraceID, Span: c.cfg.Obs.NewID(), Parent: tc.SpanID}
	if rec.Trace == 0 {
		rec.Trace = rec.Span
	}
	return rec, c.cfg.Clock.Now()
}

// endPhase emits rec, opened by startPhase at start, as ending now.
func (c *Client) endPhase(rec obs.Event, start time.Time) {
	if rec.Span == 0 {
		return
	}
	rec.At = c.cfg.Clock.Now()
	rec.Dur = rec.At.Sub(start)
	c.emit(rec)
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

// readMiss carries a read the cache could not serve at now through the
// requests the holder's core.Read names, and returns its answer. It is
// called with c.mu held and returns with it held, having released it for
// each request. An object request's call is opened under the hold that named
// the request (Figure 4, "Client requests lease for object o"), and one more
// hold ends it, installs the grant and checks both leases again against a
// clock reading taken after the reply. Each object request is its own short
// trace: its record times the full request/reply round trip as seen from the
// client.
func (c *Client) readMiss(vid core.VolumeID, oid core.ObjectID, now time.Duration) ([]byte, core.Version, error) {
	r, st := c.h.Read(vid, oid, now)
	for st.Next != core.ReadDone {
		if st.Next == core.ReadRenewVolume {
			c.mu.Unlock()
			err := c.RenewVolume(vid)
			now := c.cfg.Clock.Mono()
			c.mu.Lock()
			if err == nil {
				st, err = r.Renewed(now)
			}
			if err != nil {
				return nil, 0, err
			}
			continue
		}
		cl, err := c.begin()
		if err != nil {
			return nil, 0, err
		}
		c.mu.Unlock()
		rec, start := c.startPhase(obs.EvRenewObject, wire.TraceContext{})
		m, err := c.rpc(cl, wire.ReqObjLease{Seq: cl.seq, Object: oid, Version: st.Version})
		rec.Object, rec.Volume = oid, vid
		c.endPhase(rec, start)
		reply, isGrant := m.(wire.ObjLease)
		if err == nil && !isGrant {
			err = fmt.Errorf("client: unexpected %s reply to object lease request", m.Kind())
		}
		var at core.Anchor
		if err == nil {
			at = c.anchorNow()
		}
		c.mu.Lock()
		c.end(cl)
		if err == nil {
			st, err = r.Step(core.ObjectGrant{Object: oid, Version: reply.Version, Expire: reply.Expire,
				Data: reply.Data}, reply.HasData, at)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return st.Data, st.Version, nil
}

// RenewVolume runs the volume-lease conversation of Figure 4 as the
// holder's core.Renewal steps it, handing the objects an answer drops to
// OnInvalidate before it sends the ack.
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
	r, req := c.h.RenewVolume(vid, c.h.Epoch(vid))
	c.mu.Unlock()

	cl, err := c.open()
	if err != nil {
		return err
	}
	defer c.release(cl)

	// One record covers the whole (possibly multi-round) conversation; N
	// counts its request/reply rounds.
	rounds := 0
	rec, start := c.startPhase(obs.EvRenewVolume, wire.TraceContext{})
	if rec.Span != 0 {
		defer func() {
			rec.Volume, rec.N = vid, rounds
			c.endPhase(rec, start)
		}()
	}

	for rounds < 8 {
		g, err := c.volumeRound(cl, vid, req)
		rounds++
		if err != nil {
			return err
		}
		at := c.anchorNow()
		c.mu.Lock()
		st := r.Step(g, at)
		c.invalsSeen += int64(len(st.Dropped))
		c.mu.Unlock()
		// A client-initiated conversation: the hook sees a zero trace context.
		c.traceDrops(st.Dropped, vid)
		c.relay(st.Dropped, wire.TraceContext{})
		if req = st.Next; req.Kind == core.RenewalDone {
			return nil
		}
		if req.Kind == core.SendRenewObjLeases {
			c.emit(obs.Event{Type: obs.EvReconnect, Volume: vid, Epoch: g.Epoch, N: len(req.Held)})
			c.logf("reconnecting to volume %s (epoch %d): renewing %d objects", vid, g.Epoch, len(req.Held))
		}
	}
	return fmt.Errorf("client: volume renewal for %s did not converge", vid)
}

// volumeRound sends req in its frame, as a message of conversation cl on
// vid, and returns the answer the reply carries: the inverse of the server's
// volumeReply.
func (c *Client) volumeRound(cl *call, vid core.VolumeID, req core.VolumeRequest) (core.VolumeGrant, error) {
	seq := cl.seq
	var out wire.Message = wire.ReqVolLease{Seq: seq, Volume: vid, Epoch: req.Epoch}
	switch req.Kind {
	case core.SendRenewObjLeases:
		out = wire.RenewObjLeases{Seq: seq, Volume: vid, Held: req.Held}
	case core.SendAckInvalidate:
		out = wire.AckInvalidate{Seq: seq, Volume: vid, Objects: req.Acked}
	}
	m, err := c.rpc(cl, out)
	if err != nil {
		return core.VolumeGrant{}, err
	}
	switch v := m.(type) {
	case wire.VolLease:
		return core.VolumeGrant{Status: core.VolumeGranted, Volume: vid, Expire: v.Expire, Epoch: v.Epoch}, nil
	case wire.InvalRenew:
		g := core.VolumeGrant{Status: core.VolumePendingInvalidations, Volume: vid, Invalidate: v.Invalidate}
		for _, r := range v.Renew {
			g.Renew = append(g.Renew, core.ObjectGrant{Object: r.Object, Version: r.Version, Expire: r.Expire})
		}
		return g, nil
	case wire.MustRenewAll:
		return core.VolumeGrant{Status: core.VolumeNeedsRenewAll, Volume: vid, Epoch: v.Epoch}, nil
	default:
		return core.VolumeGrant{}, fmt.Errorf("client: unexpected %s during volume renewal", m.Kind())
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
