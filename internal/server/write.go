package server

import (
	"errors"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// write is one write in flight: Figure 3's "Server writes object o" from
// the table's BeginWrite to its finish. It is kept in its shard's writes map
// and guarded by the shard mutex, so the write waits for its
// acknowledgments as state, not as a parked goroutine. Whichever comes
// first finishes it, on its own goroutine: the last applied ack
// (completeWriteAcks, on the acking connection's reader), the deadline
// (expire) or Close. The finish hands the outcome to complete.
type write struct {
	plan  core.WritePlan
	data  []byte
	start time.Time
	// root is the write's record, zero when untraced; entered is when the
	// write was asked for.
	root    obs.Event
	entered time.Time
	// deadline ends the ack wait at the lease bound; nil when the plan
	// notifies nobody.
	deadline clock.Timer
	// done closes at the finish. Requests the table refused wait on it; it
	// is made by the first of them (wait).
	done     chan struct{}
	complete func(core.Version, time.Duration, error)

	// The outcome, set by finishLocked.
	version core.Version
	unacked []core.ClientID
	end     time.Time
	err     error
}

// wait returns the channel that closes when w finishes. It must be called
// with the shard mutex held.
func (w *write) wait() <-chan struct{} {
	if w.done == nil {
		w.done = make(chan struct{})
	}
	return w.done
}

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

// WriteTraced is Write carrying a causal trace context. It begins the write
// (beginWrite), as a client's WriteReq does, and waits for its finish;
// while the object's previous write is in flight it waits for that one
// first. When tracing is live the write is a record of its own, EvWrite (a
// child of tc's span when the write came over the wire; a zero tc starts a
// fresh trace here), and the three places its latency can go are the
// records it parents: the per-object serialization wait (EvWriteBlocked),
// each connection's invalidation fan-out (EvInvalSent, by the flusher), and
// the ack-collection wait (EvWriteUnblocked).
func (s *Server) WriteTraced(oid core.ObjectID, data []byte, tc wire.TraceContext) (core.Version, time.Duration, error) {
	var entered time.Time
	if s.cfg.Obs.Tracing() {
		entered = s.cfg.Clock.Now()
	}
	type outcome struct {
		version core.Version
		waited  time.Duration
		err     error
	}
	out := make(chan outcome, 1)
	complete := func(version core.Version, waited time.Duration, err error) {
		out <- outcome{version, waited, err}
	}
	for {
		prev, err := s.beginWrite(oid, data, tc, entered, complete)
		if errors.Is(err, core.ErrWriteInFlight) {
			if err := s.closedOr(prev); err != nil {
				return 0, 0, err
			}
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		o := <-out
		return o.version, o.waited, o.err
	}
}

// beginWrite starts a write of oid and returns without waiting for it.
// Under one hold of the shard mutex it begins the table's write, queues the
// invalidations on the holders' connections and arms the deadline; a write
// that notifies nobody finishes there and then. complete receives the
// outcome once the write has finished. A returned error means the write did
// not begin and complete is not called; for core.ErrWriteInFlight, prev is
// the channel that closes when the object's write in flight finishes.
// entered is when the write was asked for, read only when tracing is live
// (zero: now).
func (s *Server) beginWrite(oid core.ObjectID, data []byte, tc wire.TraceContext, entered time.Time,
	complete func(core.Version, time.Duration, error)) (prev <-chan struct{}, err error) {
	sh, err := s.shardOfObject(oid)
	if err != nil {
		return nil, err
	}
	w := &write{data: data, complete: complete}
	// root stays zero — the untraced path — unless tracing is live.
	if s.cfg.Obs.Tracing() {
		w.root = obs.Event{Type: obs.EvWrite, Object: oid,
			Trace: tc.TraceID, Span: s.cfg.Obs.NewID(), Parent: tc.SpanID}
		if w.root.Trace == 0 {
			w.root.Trace = w.root.Span
		}
		if entered.IsZero() {
			entered = s.cfg.Clock.Now()
		}
		w.entered = entered
	}

	sh.mu.Lock()
	select {
	case <-s.closed: // Close has finished the writes in flight; none may begin
		sh.mu.Unlock()
		return nil, errClosed
	default:
	}
	// From here until the finish the table refuses to grant or renew a
	// lease on oid, and later writes of it.
	w.start = s.cfg.Clock.Now()
	if w.plan, err = sh.table.BeginWrite(w.start, oid); err != nil {
		if errors.Is(err, core.ErrWriteInFlight) {
			prev = sh.writes[oid].wait()
		}
		sh.mu.Unlock()
		return prev, err
	}
	sh.writes[oid] = w
	// Delayed-mode side effects are emitted under the shard mutex so the
	// audit model observes them strictly ordered against this volume's
	// lease grants and ack events.
	for _, q := range w.plan.Queued {
		s.emit(obs.Event{Type: obs.EvInvalQueued, Client: q.Client, Object: oid,
			Volume: w.plan.Volume, Expire: q.Since, At: w.start})
	}
	for _, c := range w.plan.Dropped {
		s.emit(obs.Event{Type: obs.EvUnreachable, Client: c, Object: oid,
			Volume: w.plan.Volume, At: w.start})
	}
	notified := len(w.plan.Notify) > 0
	if notified {
		s.fanOut(sh, w)
	} else {
		s.finishLocked(sh, w, w.start)
	}
	sh.mu.Unlock()

	if s.om != nil {
		s.om.writes.Inc()
	}
	if !notified {
		s.finished(w)
	}
	return nil, nil
}

// fanOut sends w's invalidations and arms its deadline. It runs under the
// shard mutex, which the finish takes too, so no ack or deadline can finish
// w before it is fully begun.
func (s *Server) fanOut(sh *shard, w *write) {
	oid := w.plan.Object
	// The gap between asking for the write and holding the write slot is
	// the per-object serialization wait (near zero without contention).
	s.emit(obs.Event{Type: obs.EvWriteBlocked, Object: oid, N: len(w.plan.Notify), At: w.start,
		Dur: w.start.Sub(w.entered), Trace: w.root.Trace, Parent: w.root.Span})

	// Hand the invalidations to each target connection's outbound queue;
	// the per-connection flusher coalesces queued objects into one
	// multi-object Invalidate. The table recorded each one as outstanding
	// in BeginWrite, so an ack can never race ahead of it.
	s.connMu.Lock()
	for _, inv := range w.plan.Notify {
		if cc := s.conns[inv.Client]; cc != nil {
			cc.queueInvalidate(oid, w.plan.Write, w.root.Trace, w.root.Span)
		} else {
			s.logf("write %s: client %s not connected; waiting out its lease", oid, inv.Client)
		}
	}
	s.connMu.Unlock()

	// Figure 3: T_f = min(volume.expire, object.expire), floored at
	// msgTimeout. We use the per-client bounds (their max is the protocol's
	// global bound) and in best-effort mode cap the whole wait at the grace
	// period.
	deadline := w.start.Add(s.cfg.MsgTimeout)
	for _, inv := range w.plan.Notify {
		if inv.LeaseExpire.After(deadline) {
			deadline = inv.LeaseExpire
		}
	}
	if s.cfg.WriteMode == WriteBestEffort {
		if g := w.start.Add(s.cfg.BestEffortGrace); g.Before(deadline) {
			deadline = g
		}
	}
	// Armed with the time remaining from now, not a duration from start,
	// so the wait never stretches past the min(t, t_v) lease bound by the
	// time taken since start. The finish stops it, so it outlives no write.
	w.deadline = s.cfg.Clock.AfterFunc(deadline.Sub(s.cfg.Clock.Now()), func() { s.expire(sh, w) })
}

// expire is w's deadline: it finishes w unless an ack or Close did first.
func (s *Server) expire(sh *shard, w *write) {
	sh.mu.Lock()
	if sh.writes[w.plan.Object] != w {
		sh.mu.Unlock()
		return
	}
	s.finishLocked(sh, w, s.cfg.Clock.Now())
	sh.mu.Unlock()
	s.finished(w)
}

// finishWrites finishes every write in flight, as though its deadline had
// passed. Close runs it once s.closed is closed, so no write begins after.
func (s *Server) finishWrites() {
	now := s.cfg.Clock.Now()
	for _, sh := range s.allShards() {
		var ended []*write
		sh.mu.Lock()
		for _, w := range sh.writes {
			s.finishLocked(sh, w, now)
			ended = append(ended, w)
		}
		sh.mu.Unlock()
		for _, w := range ended {
			s.finished(w)
		}
	}
}

// finishLocked ends w's invalidation round at now. It must be called with
// the shard mutex held and w still in flight. The clients the table still
// waits for become unreachable; their transitions precede the origin's
// commit event so the audit model never judges a dropped client against the
// new version.
func (s *Server) finishLocked(sh *shard, w *write, now time.Time) {
	oid := w.plan.Object
	w.unacked = sh.table.Unacked(now, oid)
	for _, c := range w.unacked {
		s.emit(obs.Event{Type: obs.EvUnreachable, Client: c, Object: oid,
			Volume: w.plan.Volume, At: now})
	}
	w.version, w.err = s.origin.Finish(sh.table, now, w.plan, w.data, w.unacked)
	w.end = now
	delete(sh.writes, oid)
	if w.done != nil {
		close(w.done)
	}
}

// finished is the part of w's finish that runs after the shard mutex is
// released: stop the deadline, account and record the write, and hand the
// outcome to complete.
func (s *Server) finished(w *write) {
	if w.deadline != nil {
		w.deadline.Stop()
	}
	if w.err != nil {
		w.complete(0, 0, w.err)
		return
	}
	waited := w.end.Sub(w.start)
	if s.om != nil {
		s.om.ackWait.Observe(waited)
		s.om.unreached.Add(int64(len(w.unacked)))
	}
	oid := w.plan.Object
	if len(w.plan.Notify) > 0 {
		s.emit(obs.Event{Type: obs.EvWriteUnblocked, Object: oid, N: len(w.unacked), Dur: waited, At: w.end,
			Trace: w.root.Trace, Parent: w.root.Span})
	}
	if root := w.root; root.Span != 0 {
		root.Volume, root.N = w.plan.Volume, len(w.plan.Notify)
		root.At = s.cfg.Clock.Now()
		root.Dur = root.At.Sub(w.entered)
		s.emit(root)
	}
	if len(w.unacked) > 0 {
		s.logf("write %s v%d: %d client(s) unreachable after %v", oid, w.version, len(w.unacked), waited)
	}
	w.complete(w.version, waited, nil)
}
