package server

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Write modifies an object, running Figure 3's "Server writes object o":
// invalidate every client the plan names, collect acknowledgments until each
// client acks or its lease bound passes (floored at MsgTimeout), move
// non-responders to the Unreachable set, then let the origin finish — the
// local store installs the new data and bumps the version; a cache, for
// which the write is its upstream's invalidation passing through, drops its
// copy (data is ignored and the version reported is 0). It returns the new
// version and how long the write waited.
//
// Writes are serialized per object, not globally: two writes to one object
// run back to back (the second waits for the first's guard channel), while
// writes to distinct objects — in the same volume or different ones —
// collect their acknowledgments concurrently. The shard mutex is held only
// for the in-memory table transitions, never across the ack wait.
func (s *Server) Write(oid core.ObjectID, data []byte) (core.Version, time.Duration, error) {
	return s.WriteTraced(oid, data, wire.TraceContext{})
}

// WriteTraced is Write carrying a causal trace context. When the server's
// observer has a span recorder, the write records a root span (a child of
// tc's span when the write came over the wire) plus child spans for the three places its latency can go: the
// per-object serialization wait, each connection's invalidation fan-out
// (recorded by the flusher), and the ack-collection wait. A zero tc starts
// a fresh trace at this server.
func (s *Server) WriteTraced(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	sh, err := s.shardOfObject(oid)
	if err != nil {
		return 0, 0, err
	}

	// Resolve the span recorder once: sr stays nil — the zero-cost path —
	// unless tracing is wired up.
	sr := s.cfg.Obs.SpanRec()
	var (
		traceID, rootID, parentID uint64
		spanStart                 time.Time
	)
	if sr != nil {
		traceID, parentID = tc.TraceID, tc.SpanID
		if traceID == 0 {
			traceID = sr.NewID()
		}
		rootID = sr.NewID()
		spanStart = s.cfg.Clock.Now()
	}

	type waiter struct {
		client core.ClientID
		ch     chan struct{}
		bound  time.Time
	}

	// Acquire the per-object write slot: if another write to oid is in
	// flight, wait for its guard to close, then retry.
	var (
		start   time.Time
		plan    core.WritePlan
		guard   chan struct{}
		waiters []waiter
	)
	for {
		sh.mu.Lock()
		prev, busy := sh.writing[oid]
		if !busy {
			break // sh.mu stays held
		}
		sh.mu.Unlock()
		if err := s.closedOr(prev); err != nil {
			return 0, 0, err
		}
	}
	start = s.cfg.Clock.Now()
	plan, err = sh.table.BeginWrite(start, oid)
	if err != nil {
		sh.mu.Unlock()
		return 0, 0, err
	}
	// Block lease grants on this object (and later writes to it) until the
	// write completes, so no client can acquire a fresh lease on the old
	// data after the invalidation set was computed.
	guard = make(chan struct{})
	sh.writing[oid] = guard
	waiters = make([]waiter, 0, len(plan.Notify))
	for _, inv := range plan.Notify {
		key := ackKey{client: inv.Client, object: oid}
		ch := make(chan struct{})
		sh.acks[key] = ackWait{ch: ch, deadline: inv.LeaseExpire}
		waiters = append(waiters, waiter{client: inv.Client, ch: ch, bound: inv.LeaseExpire})
	}
	// Delayed-mode side effects are emitted under the shard mutex so the
	// audit model observes them strictly ordered against this volume's
	// lease grants and ack events.
	for _, q := range plan.Queued {
		s.emit(obs.Event{Type: obs.EvInvalQueued, Client: q.Client, Object: oid,
			Volume: plan.Volume, Expire: q.Since, At: start})
	}
	for _, c := range plan.Dropped {
		s.emit(obs.Event{Type: obs.EvUnreachable, Client: c, Object: oid,
			Volume: plan.Volume, At: start})
	}
	sh.mu.Unlock()

	if s.om != nil {
		s.om.writes.Inc()
	}
	if sr != nil {
		// The gap between entering WriteTraced and holding the write slot is
		// the per-object serialization wait (near zero without contention).
		sr.Record(obs.Span{Trace: traceID, ID: sr.NewID(), Parent: rootID,
			Kind: obs.SpanSerialize, Node: s.cfg.Name, Object: oid,
			Volume: plan.Volume, Start: spanStart, Dur: start.Sub(spanStart)})
	}
	if len(waiters) > 0 {
		s.emit(obs.Event{Type: obs.EvWriteBlocked, Object: oid, N: len(waiters), At: start})
	}

	// Hand the invalidations to each target connection's outbound queue;
	// the per-connection flusher coalesces queued objects into one
	// multi-object Invalidate. The ack channels above are already
	// registered, so an ack can never race ahead of its registration.
	s.connMu.Lock()
	targets := make([]*clientConn, len(waiters))
	for i, w := range waiters {
		targets[i] = s.conns[w.client] // nil if not connected
	}
	s.connMu.Unlock()
	for i, cc := range targets {
		if cc == nil {
			s.logf("write %s: client %s not connected; waiting out its lease", oid, waiters[i].client)
			continue
		}
		cc.queueInvalidate(oid, traceID, rootID)
	}
	var ackStart time.Time
	if sr != nil {
		ackStart = s.cfg.Clock.Now()
	}

	// Figure 3: T_f = min(volume.expire, object.expire), floored at
	// msgTimeout. We use the per-client bounds (their max is the protocol's
	// global bound) and in best-effort mode cap the whole wait at the grace
	// period.
	deadline := start.Add(s.cfg.MsgTimeout)
	for _, w := range waiters {
		if w.bound.After(deadline) {
			deadline = w.bound
		}
	}
	if s.cfg.WriteMode == WriteBestEffort {
		if g := start.Add(s.cfg.BestEffortGrace); g.Before(deadline) {
			deadline = g
		}
	}

	var timeout <-chan time.Time
	if len(waiters) > 0 {
		// Arm the timer with the time remaining from *now*, not from start:
		// the fan-out above takes real time, and measuring from start would
		// silently stretch the wait past the min(t, t_v) lease bound by
		// however long the sends took (the client-visible symptom was
		// writes blocking well past the bound on a slow network).
		remaining := deadline.Sub(s.cfg.Clock.Now())
		if remaining < 0 {
			remaining = 0
		}
		timeout = s.cfg.Clock.After(remaining)
	}
	expired := false
	for _, w := range waiters {
		if expired {
			break
		}
		select {
		case <-w.ch:
		case <-timeout:
			expired = true
		case <-s.closed:
			expired = true
		}
	}

	// Collect the clients that never acknowledged and release their ack
	// entries.
	var unacked []core.ClientID
	now := s.cfg.Clock.Now()
	sh.mu.Lock()
	for _, w := range waiters {
		key := ackKey{client: w.client, object: oid}
		if aw, pending := sh.acks[key]; pending {
			// Close so any volume-grant guard waiting on this client's
			// acknowledgment unblocks (and then observes the client's new
			// unreachable standing).
			close(aw.ch)
			delete(sh.acks, key)
			unacked = append(unacked, w.client)
		}
	}
	// Unreachable transitions precede the origin's commit event so the audit
	// model never judges a dropped client against the new version.
	for _, c := range unacked {
		s.emit(obs.Event{Type: obs.EvUnreachable, Client: c, Object: oid,
			Volume: plan.Volume, At: now})
	}
	version, err := s.origin.Finish(sh.table, now, plan, data, unacked)
	delete(sh.writing, oid)
	close(guard)
	sh.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	waited := now.Sub(start)
	if sr != nil {
		sr.Record(obs.Span{Trace: traceID, ID: sr.NewID(), Parent: rootID,
			Kind: obs.SpanAckWait, Node: s.cfg.Name, Object: oid, Volume: plan.Volume,
			Start: ackStart, Dur: now.Sub(ackStart), N: len(unacked)})
		sr.Record(obs.Span{Trace: traceID, ID: rootID, Parent: parentID,
			Kind: obs.SpanWrite, Node: s.cfg.Name, Object: oid, Volume: plan.Volume,
			Start: spanStart, Dur: s.cfg.Clock.Now().Sub(spanStart), N: len(waiters)})
	}
	if s.om != nil {
		s.om.ackWait.Observe(waited)
		s.om.unreached.Add(int64(len(unacked)))
	}
	if len(waiters) > 0 {
		s.emit(obs.Event{Type: obs.EvWriteUnblocked, Object: oid, N: len(unacked), Dur: waited, At: now})
	}
	if t := s.cfg.SlowWriteThreshold; t > 0 && waited >= t {
		if s.om != nil {
			s.om.slowWrites.Inc()
		}
		s.emit(obs.Event{Type: obs.EvSlowOp, Object: oid, N: len(waiters), Dur: waited, At: now})
		s.logf("slow write %s v%d: waited %v for %d invalidation(s) (threshold %v)",
			oid, version, waited, len(waiters), t)
	}
	if len(unacked) > 0 {
		s.logf("write %s v%d: %d client(s) unreachable after %v", oid, version, len(unacked), waited)
	}
	return version, waited, nil
}
