package main

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Trace phases. The hub records only while a phase is set.
const (
	phaseOff   = 0
	phaseRun   = 1 // the workload's own cycle
	phaseProbe = 2 // the fan-out-1 probe cycle of read-only workloads
)

// frameEvent is one object's share of one frame crossing one connection end.
// A frame naming k objects yields k events, the first with cont unset.
type frameEvent struct {
	enter, exit int64 // Send: entry and return of Conn.Send; Recv: both the return of Conn.Recv
	seq         uint64
	obj         core.ObjectID
	bytes       int32 // wire.Size of the frame
	node, peer  int16
	kind        wire.Kind
	send        bool
	cont        bool
}

// tapHub is the traced run's collector: one pre-allocated event buffer
// shared by every node's tap, the node registry that lets an event name its
// peer, and the first frame of each kind seen per phase (the wire layer's
// isolated measurements replay exactly those).
type tapHub struct {
	phase   atomic.Int32
	events  []frameEvent
	n       atomic.Int64 // slots claimed
	stored  atomic.Int64 // slots written; orders the writes before recorded's reads
	dropped atomic.Int64

	mu      sync.Mutex
	names   []string
	byName  map[string]int16
	byAddr  map[string]int16
	samples [3][wire.NumKinds]wire.Message
	seen    [3][wire.NumKinds]atomic.Bool
}

func newTapHub(capacity int) *tapHub {
	return &tapHub{
		events: make([]frameEvent, capacity),
		byName: map[string]int16{},
		byAddr: map[string]int16{},
	}
}

// id returns the node id for a label, registering it on first use. Client
// nodes are labelled with their ClientID, which is how an accepted
// connection learns its peer from the Hello.
func (h *tapHub) id(name string) int16 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id, ok := h.byName[name]; ok {
		return id
	}
	id := int16(len(h.names))
	h.names = append(h.names, name)
	h.byName[name] = id
	return id
}

func (h *tapHub) lookup(name string) int16 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if id, ok := h.byName[name]; ok {
		return id
	}
	return -1
}

// sample returns the first frame of kind k the run phase carried, else the
// probe phase's.
func (h *tapHub) sample(k wire.Kind) wire.Message {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m := h.samples[phaseRun][k]; m != nil {
		return m
	}
	return h.samples[phaseProbe][k]
}

// recorded returns the events captured so far, once every claimed slot has
// been written. Call it with the phase off and the operations complete: an
// event is claimed at most a few instructions before it is stored.
func (h *tapHub) recorded() []frameEvent {
	n := h.n.Load()
	if n > int64(len(h.events)) {
		n = int64(len(h.events))
	}
	for h.stored.Load() < n {
		runtime.Gosched()
	}
	return h.events[:n]
}

// node returns the labelled tap for one process of the topology.
func (h *tapHub) node(name string, inner transport.Network) transport.Network {
	return &tapNetwork{hub: h, inner: inner, id: h.id(name)}
}

// tapNetwork is the benchmark's transport.Network decorator: it timestamps
// entry and exit of every Conn.Send and the return of every Conn.Recv on the
// connections of one node, from outside the protocol packages.
type tapNetwork struct {
	hub   *tapHub
	inner transport.Network
	id    int16
}

func (n *tapNetwork) Listen(addr string) (transport.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	n.hub.mu.Lock()
	n.hub.byAddr[l.Addr()] = n.id
	n.hub.mu.Unlock()
	return &tapListener{Listener: l, net: n}, nil
}

func (n *tapNetwork) Dial(addr string) (transport.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	n.hub.mu.Lock()
	peer, ok := n.hub.byAddr[addr]
	n.hub.mu.Unlock()
	if !ok {
		peer = -1
	}
	tc := &tapConn{Conn: c, hub: n.hub, node: n.id}
	tc.peer.Store(int32(peer))
	return tc, nil
}

type tapListener struct {
	transport.Listener
	net *tapNetwork
}

func (l *tapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: c, hub: l.net.hub, node: l.net.id}
	tc.peer.Store(-1) // learned from the Hello
	return tc, nil
}

type tapConn struct {
	transport.Conn
	hub  *tapHub
	node int16
	peer atomic.Int32
}

func (c *tapConn) Send(m wire.Message) error {
	phase := c.hub.phase.Load()
	if phase == phaseOff {
		return c.Conn.Send(m)
	}
	enter := nowNs()
	err := c.Conn.Send(m)
	c.hub.record(phase, c.node, int16(c.peer.Load()), true, enter, nowNs(), m)
	return err
}

func (c *tapConn) Recv() (wire.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil {
		return m, err
	}
	if hello, ok := m.(wire.Hello); ok && c.peer.Load() < 0 {
		c.peer.Store(int32(c.hub.lookup(string(hello.Client))))
	}
	if phase := c.hub.phase.Load(); phase != phaseOff {
		now := nowNs()
		c.hub.record(phase, c.node, int16(c.peer.Load()), false, now, now, m)
	}
	return m, nil
}

// record appends m's events. It allocates nothing: the buffer is claimed by
// one atomic add per event, and a full buffer counts a drop (which fails the
// run) instead of growing.
func (h *tapHub) record(phase int32, node, peer int16, send bool, enter, exit int64, m wire.Message) {
	k := m.Kind()
	if !h.seen[phase][k].Load() && h.seen[phase][k].CompareAndSwap(false, true) {
		h.mu.Lock()
		h.samples[phase][k] = m
		h.mu.Unlock()
	}
	ev := frameEvent{enter: enter, exit: exit, seq: m.Sequence(), node: node, peer: peer, kind: k, send: send}
	var objs []core.ObjectID
	switch v := m.(type) {
	case wire.ReqObjLease:
		ev.obj = v.Object
	case wire.ObjLease:
		ev.obj = v.Object
	case wire.WriteReq:
		ev.obj = v.Object
	case wire.WriteReply:
		ev.obj = v.Object
	case wire.Invalidate:
		objs = v.Objects
	case wire.AckInvalidate:
		objs = v.Objects
	}
	ev.bytes = int32(wire.Size(m))
	if objs == nil {
		h.put(ev)
		return
	}
	for i, o := range objs {
		ev.obj, ev.cont = o, i > 0
		h.put(ev)
	}
}

func (h *tapHub) put(ev frameEvent) {
	i := h.n.Add(1) - 1
	if i >= int64(len(h.events)) {
		h.dropped.Add(1)
		return
	}
	h.events[i] = ev
	h.stored.Add(1)
}
