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

	for rounds < 8 {
		g, err := c.volumeRound(seq, vid, req)
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

// volumeRound sends req in its frame, as message seq of a conversation on
// vid, and returns the answer the reply carries: the inverse of the server's
// volumeReply.
func (c *Client) volumeRound(seq uint64, vid core.VolumeID, req core.VolumeRequest) (core.VolumeGrant, error) {
	var out wire.Message = wire.ReqVolLease{Seq: seq, Volume: vid, Epoch: req.Epoch}
	switch req.Kind {
	case core.SendRenewObjLeases:
		out = wire.RenewObjLeases{Seq: seq, Volume: vid, Held: req.Held}
	case core.SendAckInvalidate:
		out = wire.AckInvalidate{Seq: seq, Volume: vid, Objects: req.Acked}
	}
	m, err := c.rpc(seq, out)
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
