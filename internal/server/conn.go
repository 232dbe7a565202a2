package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// clientConn is one connected client.
type clientConn struct {
	id   core.ClientID
	conn transport.Conn

	// invalMu guards invalQ, the outbound invalidation queue. Writes
	// enqueue items here; the connection's flusher goroutine drains
	// whatever has accumulated into one multi-object wire.Invalidate, so a
	// burst of writes against this client's cache coalesces into a single
	// message.
	invalMu sync.Mutex
	invalQ  []invalItem
	// invalKick wakes the flusher (capacity 1: one pending kick covers any
	// number of enqueues).
	invalKick chan struct{}
	// gone closes when the connection is torn down, stopping the flusher.
	gone chan struct{}
}

// invalItem is one queued invalidation: the object, its write's number and
// trace, so the flusher can record a fan-out span and propagate the context
// on the wire (trace 0 = untraced write).
type invalItem struct {
	oid    core.ObjectID
	write  core.WriteNum
	trace  uint64
	parent uint64 // the write's root span id
}

// queueInvalidate appends oid's invalidation by write n to the outbound
// batch and wakes the flusher. trace/parent tie it to the write's span.
func (cc *clientConn) queueInvalidate(oid core.ObjectID, n core.WriteNum, trace, parent uint64) {
	cc.invalMu.Lock()
	cc.invalQ = append(cc.invalQ, invalItem{oid: oid, write: n, trace: trace, parent: parent})
	cc.invalMu.Unlock()
	select {
	case cc.invalKick <- struct{}{}:
	default: // a kick is already pending
	}
}

// invalFlusher drains the connection's invalidation queue, sending each
// batch as one multi-object Invalidate. Runs as a per-connection goroutine.
//
// When the batch contains traced writes, the send is recorded as one
// fan-out span per connection, and the first traced item's context rides
// the Invalidate so the client's ack (and a proxy's own downstream round)
// joins that write's trace. A batch coalescing several traced writes
// attributes the message to the first — the others still account the
// fan-out through their ack-wait spans.
func (s *Server) invalFlusher(cc *clientConn) {
	defer s.wg.Done()
	for {
		select {
		case <-cc.invalKick:
		case <-cc.gone:
			return
		case <-s.closed:
			return
		}
		for {
			cc.invalMu.Lock()
			batch := cc.invalQ
			cc.invalQ = nil
			cc.invalMu.Unlock()
			if len(batch) == 0 {
				break
			}
			objs := make([]core.ObjectID, len(batch))
			writes := make([]core.WriteNum, len(batch))
			var trace, parent uint64
			for i, it := range batch {
				objs[i], writes[i] = it.oid, it.write
				if trace == 0 && it.trace != 0 {
					trace, parent = it.trace, it.parent
				}
			}
			sr := s.cfg.Obs.SpanRec()
			var (
				tc        wire.TraceContext
				spanID    uint64
				spanStart time.Time
			)
			if sr != nil && trace != 0 {
				spanID = sr.NewID()
				spanStart = s.cfg.Clock.Now()
				tc = wire.TraceContext{TraceID: trace, SpanID: spanID}
			} else {
				sr = nil
				if trace != 0 {
					// Still propagate the context (parented on the write's
					// root) even when this node records nothing.
					tc = wire.TraceContext{TraceID: trace, SpanID: parent}
				}
			}
			if err := cc.conn.Send(wire.Invalidate{Objects: objs, Writes: writes, Trace: tc}); err != nil {
				// The write's ack wait times the client out and marks it
				// unreachable; nothing more to do here.
				s.logf("invalidate %v to %s failed: %v", objs, cc.id, err)
				continue
			}
			if sr != nil {
				sr.Record(obs.Span{Trace: trace, ID: spanID, Parent: parent,
					Kind: obs.SpanFanout, Node: s.cfg.Name, Client: cc.id,
					Object: batch[0].oid, Start: spanStart,
					Dur: s.cfg.Clock.Now().Sub(spanStart), N: len(batch)})
			}
			if s.om != nil {
				s.om.invalSent.Add(int64(len(batch)))
			}
			for _, oid := range objs {
				s.emit(obs.Event{Type: obs.EvInvalSent, Client: cc.id, Object: oid})
			}
		}
	}
}

// serveConn owns one client connection: handshake, then request dispatch
// until the connection drops.
func (s *Server) serveConn(conn transport.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	first, err := conn.Recv()
	if err != nil {
		return
	}
	hello, ok := first.(wire.Hello)
	if !ok || hello.Client == "" {
		_ = conn.Send(wire.Error{Code: wire.ErrCodeBadRequest, Msg: "expected Hello"})
		return
	}
	cc := &clientConn{
		id:        hello.Client,
		conn:      conn,
		invalKick: make(chan struct{}, 1),
		gone:      make(chan struct{}),
	}

	s.connMu.Lock()
	if old, exists := s.conns[cc.id]; exists {
		old.conn.Close()
	}
	s.conns[cc.id] = cc
	s.connMu.Unlock()
	s.wg.Add(1)
	go s.invalFlusher(cc)
	if s.om != nil {
		s.om.conns.Add(1)
	}
	s.emit(obs.Event{Type: obs.EvConnect, Client: cc.id})
	s.logf("client %s connected from %s", cc.id, conn.RemoteAddr())

	defer func() {
		close(cc.gone)
		s.connMu.Lock()
		if s.conns[cc.id] == cc {
			delete(s.conns, cc.id)
		}
		s.connMu.Unlock()
		if s.om != nil {
			s.om.conns.Add(-1)
		}
		s.emit(obs.Event{Type: obs.EvDisconnect, Client: cc.id})
		s.logf("client %s disconnected", cc.id)
	}()

	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		if err := s.dispatch(cc, m); err != nil {
			s.logf("client %s: %v", cc.id, err)
			return
		}
	}
}

// dispatch handles one inbound message on the reader goroutine.
func (s *Server) dispatch(cc *clientConn, m wire.Message) error {
	switch v := m.(type) {
	case wire.ReqObjLease:
		return s.handleReqObjLease(cc, v)
	case wire.ReqVolLease:
		return s.handleReqVolLease(cc, v)
	case wire.RenewObjLeases:
		return s.handleRenewObjLeases(cc, v)
	case wire.AckInvalidate:
		return s.handleAckInvalidate(cc, v)
	case wire.WriteReq:
		// Writes block on acknowledgments (possibly from this very
		// connection), so they must not occupy the reader goroutine.
		go s.handleWriteReq(cc, v)
		return nil
	case wire.Hello:
		return errors.New("duplicate Hello")
	default:
		return fmt.Errorf("unexpected message %s", m.Kind())
	}
}

// handleReqObjLease grants or renews an object lease, piggybacking data when
// the client is stale (Figure 3). It runs on the connection's reader unless
// it has to wait — for a write in flight on the object, or for the origin —
// in which case it is parked so the reader stays free for acknowledgments.
func (s *Server) handleReqObjLease(cc *clientConn, req wire.ReqObjLease) error {
	sh, err := s.shardOfObject(req.Object)
	if err != nil {
		return s.park(cc, req, func() error { return s.consult(req.Object) })
	}
	sh.mu.Lock()
	bound, ok := s.origin.ObjectBound(req.Object)
	if !ok {
		return s.parkOnWrites(cc, req, sh, func() error { return s.consult(req.Object) }, req.Object)
	}
	g, err := sh.table.GrantObjectLease(s.cfg.Clock.Now(), cc.id, req.Object, req.Version)
	if errors.Is(err, core.ErrWriteInFlight) {
		return s.parkOnWrites(cc, req, sh, nil, req.Object)
	}
	if err == nil {
		g.Expire = capAt(g.Expire, bound)
		// Emitted under the shard mutex so the audit model sees the grant
		// strictly before any write that includes this client in its plan.
		s.emit(obs.Event{Type: obs.EvObjLeaseGrant, Client: cc.id, Object: g.Object,
			Version: g.Version, Expire: g.Expire})
	}
	sh.mu.Unlock()
	if err != nil {
		return s.sendErr(cc, req.Seq, err)
	}
	if s.om != nil {
		s.om.objGrants.Inc()
	}
	reply := wire.ObjLease{
		Seq:     req.Seq,
		Object:  g.Object,
		Version: g.Version,
		Expire:  g.Expire,
	}
	if g.Data != nil {
		reply.HasData = true
		reply.Data = g.Data
	}
	return cc.conn.Send(reply)
}

// handleReqVolLease opens Figure 3's "Server grants lease for volume v";
// the table keeps the conversation it may start (core.Table.RequestVolume).
// While the client owes a write an ack the request waits for those writes
// to finish: by then the client has acked, or it must reconnect.
func (s *Server) handleReqVolLease(cc *clientConn, req wire.ReqVolLease) error {
	sh := s.shardOf(req.Volume)
	if sh == nil {
		return s.sendErr(cc, req.Seq, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, req.Volume))
	}
	sh.mu.Lock()
	if _, ok := s.origin.VolumeBound(req.Volume); !ok {
		sh.mu.Unlock()
		return s.park(cc, req, func() error { return s.origin.RenewVolume(req.Volume) })
	}
	// The only error, an unknown volume, is ruled out above.
	g, _ := sh.table.RequestVolume(s.cfg.Clock.Now(), cc.id, req.Volume, req.Epoch, req.Seq)
	if g.Status == core.VolumeAckOwed {
		return s.parkOnWrites(cc, req, sh, nil, g.Owed...)
	}
	reply := s.volumeReply(cc, req.Seq, g)
	sh.mu.Unlock()
	return cc.conn.Send(reply)
}

// handleRenewObjLeases continues a reconnection conversation: the client has
// enumerated its cached objects; reply with the invalidate/renew vector.
func (s *Server) handleRenewObjLeases(cc *clientConn, req wire.RenewObjLeases) error {
	sh := s.shardOf(req.Volume)
	if sh == nil {
		return s.sendErr(cc, req.Seq, fmt.Errorf("%w: %q", core.ErrNoSuchVolume, req.Volume))
	}
	sh.mu.Lock()
	// Every reported object is compared against this node's copy, so each
	// copy must be settled first: the origin must back it, and the table
	// refuses while one of them has a write in flight.
	oids := make([]core.ObjectID, len(req.Held))
	for i, h := range req.Held {
		oids[i] = h.Object
		if _, ok := s.origin.ObjectBound(h.Object); !ok {
			return s.parkOnWrites(cc, req, sh, func() error { return s.consult(h.Object) }, h.Object)
		}
	}
	g, err := sh.table.HandleRenewObjLeases(s.cfg.Clock.Now(), cc.id, req.Volume, req.Seq, req.Held)
	if errors.Is(err, core.ErrWriteInFlight) {
		return s.parkOnWrites(cc, req, sh, nil, oids...)
	}
	if err != nil { // no reconnection awaits the list
		sh.mu.Unlock()
		return s.sendErr(cc, req.Seq, err)
	}
	reply := s.volumeReply(cc, req.Seq, g)
	sh.mu.Unlock()
	return cc.conn.Send(reply)
}

// handleAckInvalidate routes acknowledgment messages: Seq 0 acks belong to
// in-flight writes; the others confirm a volume conversation's vector. An
// ack the table does not await (its conversation was abandoned) is ignored;
// one from a client that owes a write an ack waits, as a request does.
func (s *Server) handleAckInvalidate(cc *clientConn, ack wire.AckInvalidate) error {
	if ack.Seq == 0 {
		s.completeWriteAcks(cc.id, ack)
		return nil
	}
	sh := s.shardOf(ack.Volume)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	if _, ok := s.origin.VolumeBound(ack.Volume); !ok {
		sh.mu.Unlock()
		return s.park(cc, ack, func() error { return s.origin.RenewVolume(ack.Volume) })
	}
	now := s.cfg.Clock.Now()
	g, err := sh.table.ConfirmVolume(now, cc.id, ack.Volume, ack.Seq, ack.Objects)
	switch {
	case err != nil: // core.ErrNoConversation: the volume is known
		sh.mu.Unlock()
		return nil
	case g.Status == core.VolumeAckOwed:
		return s.parkOnWrites(cc, ack, sh, nil, g.Owed...)
	}
	// The ack names the copies the client just dropped; without these
	// events the audit model would keep judging writes against cache
	// entries that no longer exist.
	for _, oid := range ack.Objects {
		s.emit(obs.Event{Type: obs.EvInvalAcked, Client: cc.id, Object: oid, At: now})
	}
	if g.Status == core.VolumeGranted {
		s.emit(obs.Event{Type: obs.EvPendingDelivered, Client: cc.id, Volume: ack.Volume,
			N: len(ack.Objects), At: now})
	}
	reply := s.volumeReply(cc, ack.Seq, g)
	sh.mu.Unlock()
	return cc.conn.Send(reply)
}

// volumeReply maps the table's answer g to a step of the volume
// conversation to the frame that carries it: VolLease, InvalRenew or
// MustRenewAll. It runs under the shard mutex, so the events it emits reach
// the audit model ordered against the volume's write commits and acks, and
// it caps every expiry at the origin's bound.
func (s *Server) volumeReply(cc *clientConn, seq uint64, g core.VolumeGrant) wire.Message {
	switch g.Status {
	case core.VolumeGranted:
		bound, _ := s.origin.VolumeBound(g.Volume)
		g.Expire = capAt(g.Expire, bound)
		s.emit(obs.Event{Type: obs.EvVolLeaseGrant, Client: cc.id, Volume: g.Volume,
			Epoch: g.Epoch, Expire: g.Expire})
		if s.om != nil {
			s.om.volGrants.Inc()
		}
		return wire.VolLease{Seq: seq, Volume: g.Volume, Expire: g.Expire, Epoch: g.Epoch}
	case core.VolumePendingInvalidations:
		if len(g.Invalidate) > 0 {
			s.emit(obs.Event{Type: obs.EvInvalSent, Client: cc.id, Volume: g.Volume, N: len(g.Invalidate)})
		}
		out := wire.InvalRenew{Seq: seq, Volume: g.Volume, Invalidate: g.Invalidate}
		for _, r := range g.Renew {
			// Renewed leases are fresh grants as far as the audit model is
			// concerned: without these events it would judge
			// post-reconnection cache reads against the pre-disconnect
			// expiries.
			bound, _ := s.origin.ObjectBound(r.Object)
			r.Expire = capAt(r.Expire, bound)
			s.emit(obs.Event{Type: obs.EvObjLeaseGrant, Client: cc.id, Object: r.Object,
				Volume: g.Volume, Version: r.Version, Expire: r.Expire})
			out.Renew = append(out.Renew, wire.LeaseMeta{Object: r.Object, Version: r.Version, Expire: r.Expire})
		}
		return out
	default: // core.VolumeNeedsRenewAll
		s.emit(obs.Event{Type: obs.EvReconnect, Client: cc.id, Volume: g.Volume, Epoch: g.Epoch})
		if s.om != nil {
			s.om.reconnects.Inc()
		}
		return wire.MustRenewAll{Seq: seq, Volume: g.Volume, Epoch: g.Epoch}
	}
}

// completeWriteAcks hands a write ack to the tables, one object at a time
// (a batch may span volumes); each applies it only to the invalidation of
// the echoed write number. A write's last applied ack wakes its writer.
func (s *Server) completeWriteAcks(client core.ClientID, ack wire.AckInvalidate) {
	now := s.cfg.Clock.Now()
	for i, oid := range ack.Objects {
		sh, err := s.shardOfObject(oid)
		if err != nil {
			continue // object removed or never existed; nothing to release
		}
		var n core.WriteNum
		if len(ack.Writes) == len(ack.Objects) {
			n = ack.Writes[i]
		}
		sh.mu.Lock()
		applied, last, _ := sh.table.AckWrite(now, client, oid, n) // only error: unknown oid, ruled out above
		if applied {
			// Emitted before the writer is woken: the audit model must see
			// the ack before the write's commit event.
			s.emit(obs.Event{Type: obs.EvInvalAcked, Client: client, Object: oid, At: now})
		}
		if last {
			close(sh.writes[oid].acked)
		}
		sh.mu.Unlock()
	}
	if s.om != nil {
		s.om.invalAcked.Add(int64(len(ack.Objects)))
	}
}

// handleWriteReq hands a client-requested write to the origin and replies,
// threading the request's trace context through the write and echoing it in
// the reply.
func (s *Server) handleWriteReq(cc *clientConn, req wire.WriteReq) {
	version, waited, err := s.origin.Write(req.Object, req.Data, req.Trace)
	if err != nil {
		_ = s.sendErr(cc, req.Seq, err)
		return
	}
	_ = cc.conn.Send(wire.WriteReply{
		Seq: req.Seq, Object: req.Object, Version: version, Waited: waited,
		Trace: req.Trace,
	})
}

// sendErr reports a request failure to the client.
func (s *Server) sendErr(cc *clientConn, seq uint64, err error) error {
	code := wire.ErrCodeUnknown
	switch {
	case errors.Is(err, core.ErrNoSuchObject):
		code = wire.ErrCodeNoSuchObject
	case errors.Is(err, core.ErrNoSuchVolume):
		code = wire.ErrCodeNoSuchVolume
	case errors.Is(err, core.ErrWriteFenced):
		code = wire.ErrCodeWriteFenced
	}
	return cc.conn.Send(wire.Error{Seq: seq, Code: code, Msg: err.Error()})
}
