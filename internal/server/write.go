package server

import (
	"errors"
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
// Writes are serialized per object, not globally: the table refuses a
// second write of an object until the first has finished, while writes to
// distinct objects — in the same volume or different ones — collect their
// acknowledgments concurrently. The shard mutex is held only
// for the in-memory table transitions, never across the ack wait.
func (s *Server) Write(oid core.ObjectID, data []byte) (core.Version, time.Duration, error) {
	return s.WriteTraced(oid, data, wire.TraceContext{})
}

// WriteTraced is Write carrying a causal trace context. When tracing is
// live the write is a record of its own, EvWrite (a child of tc's span when
// the write came over the wire; a zero tc starts a fresh trace here), and
// the three places its latency can go are the records it parents: the
// per-object serialization wait (EvWriteBlocked), each connection's
// invalidation fan-out (EvInvalSent, by the flusher), and the
// ack-collection wait (EvWriteUnblocked).
func (s *Server) WriteTraced(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	sh, err := s.shardOfObject(oid)
	if err != nil {
		return 0, 0, err
	}

	// root stays zero — the untraced path — unless tracing is live.
	var (
		root    obs.Event
		entered time.Time
	)
	if s.cfg.Obs.Tracing() {
		root = obs.Event{Type: obs.EvWrite, Object: oid,
			Trace: tc.TraceID, Span: s.cfg.Obs.NewID(), Parent: tc.SpanID}
		if root.Trace == 0 {
			root.Trace = root.Span
		}
		entered = s.cfg.Clock.Now()
	}

	// Begin the write once the object's previous write, if any, has
	// finished. From here until the finish the table refuses to grant or
	// renew a lease on oid, and later writes of it.
	var (
		start time.Time
		plan  core.WritePlan
	)
	for {
		sh.mu.Lock()
		start = s.cfg.Clock.Now()
		if plan, err = sh.table.BeginWrite(start, oid); !errors.Is(err, core.ErrWriteInFlight) {
			break // sh.mu stays held
		}
		prev := sh.writes[oid].done
		sh.mu.Unlock()
		if err := s.closedOr(prev); err != nil {
			return 0, 0, err
		}
	}
	if err != nil {
		sh.mu.Unlock()
		return 0, 0, err
	}
	w := inflight{acked: make(chan struct{}), done: make(chan struct{})}
	sh.writes[oid] = w
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
	if len(plan.Notify) > 0 {
		// The gap between entering WriteTraced and holding the write slot is
		// the per-object serialization wait (near zero without contention).
		s.emit(obs.Event{Type: obs.EvWriteBlocked, Object: oid, N: len(plan.Notify), At: start,
			Dur: start.Sub(entered), Trace: root.Trace, Parent: root.Span})
	}

	// Hand the invalidations to each target connection's outbound queue;
	// the per-connection flusher coalesces queued objects into one
	// multi-object Invalidate. The table recorded each one as outstanding
	// in BeginWrite, so an ack can never race ahead of it.
	s.connMu.Lock()
	targets := make([]*clientConn, len(plan.Notify))
	for i, inv := range plan.Notify {
		targets[i] = s.conns[inv.Client] // nil if not connected
	}
	s.connMu.Unlock()
	for i, cc := range targets {
		if cc == nil {
			s.logf("write %s: client %s not connected; waiting out its lease", oid, plan.Notify[i].Client)
			continue
		}
		cc.queueInvalidate(oid, plan.Write, root.Trace, root.Span)
	}

	// Figure 3: T_f = min(volume.expire, object.expire), floored at
	// msgTimeout. We use the per-client bounds (their max is the protocol's
	// global bound) and in best-effort mode cap the whole wait at the grace
	// period.
	deadline := start.Add(s.cfg.MsgTimeout)
	for _, inv := range plan.Notify {
		if inv.LeaseExpire.After(deadline) {
			deadline = inv.LeaseExpire
		}
	}
	if s.cfg.WriteMode == WriteBestEffort {
		if g := start.Add(s.cfg.BestEffortGrace); g.Before(deadline) {
			deadline = g
		}
	}

	if len(plan.Notify) > 0 {
		// Arm the timer with the time remaining from *now*, not from start:
		// the fan-out above takes real time, and measuring from start would
		// silently stretch the wait past the min(t, t_v) lease bound by
		// however long the sends took (the client-visible symptom was
		// writes blocking well past the bound on a slow network). The timer
		// is stopped once the acks are in, so it outlives no write.
		timer := s.cfg.Clock.NewTimer(deadline.Sub(s.cfg.Clock.Now())) // at once if past
		select {
		case <-w.acked:
		case <-timer.C():
		case <-s.closed:
		}
		timer.Stop()
	}

	// The clients the table still waits for become unreachable at the
	// finish. Their transitions precede the origin's commit event so the
	// audit model never judges a dropped client against the new version.
	now := s.cfg.Clock.Now()
	sh.mu.Lock()
	unacked := sh.table.Unacked(now, oid)
	for _, c := range unacked {
		s.emit(obs.Event{Type: obs.EvUnreachable, Client: c, Object: oid,
			Volume: plan.Volume, At: now})
	}
	version, err := s.origin.Finish(sh.table, now, plan, data, unacked)
	delete(sh.writes, oid)
	close(w.done)
	sh.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	waited := now.Sub(start)
	if s.om != nil {
		s.om.ackWait.Observe(waited)
		s.om.unreached.Add(int64(len(unacked)))
	}
	if len(plan.Notify) > 0 {
		s.emit(obs.Event{Type: obs.EvWriteUnblocked, Object: oid, N: len(unacked), Dur: waited, At: now,
			Trace: root.Trace, Parent: root.Span})
	}
	if root.Span != 0 {
		root.Volume, root.N = plan.Volume, len(plan.Notify)
		root.At = s.cfg.Clock.Now()
		root.Dur = root.At.Sub(entered)
		s.emit(root)
	}
	if len(unacked) > 0 {
		s.logf("write %s v%d: %d client(s) unreachable after %v", oid, version, len(unacked), waited)
	}
	return version, waited, nil
}
