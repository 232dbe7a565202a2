package algo

import (
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Callback implements Section 2.3: the server records a callback for every
// client caching an object and notifies (and awaits acknowledgment from)
// each of them before modifying it. Reads of registered copies are free;
// callback records never expire, so server state grows with the client
// population and a single unreachable client can stall a write forever (the
// failure-free simulation never exercises that stall; Table 1 records it as
// an infinite ack-wait bound).
type Callback struct {
	base
	callbacks map[objKey]map[string]struct{}
}

var _ sim.Algorithm = (*Callback)(nil)

// NewCallback constructs the algorithm.
func NewCallback(env *sim.Env) *Callback {
	return &Callback{
		base:      newBase(env),
		callbacks: make(map[objKey]map[string]struct{}),
	}
}

// Name implements sim.Algorithm.
func (*Callback) Name() string { return "Callback" }

// HandleRead implements sim.Algorithm.
func (c *Callback) HandleRead(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	ck := copyKey{e.Client, k}
	if _, registered := c.callbacks[k][e.Client]; registered {
		// A registered copy is guaranteed current: the server would have
		// invalidated it before any write.
		c.env.Rec.Read(false)
		return
	}
	c.msg(now, e.Server, metrics.MsgReadValidate, sim.CtrlBytes)
	c.fetchResponse(now, ck, e.Size, metrics.MsgReadValidate)
	if c.callbacks[k] == nil {
		c.callbacks[k] = make(map[string]struct{})
	}
	c.callbacks[k][e.Client] = struct{}{}
	c.chargeState(now, e.Server, +1)
	c.env.Rec.Read(false)
}

// HandleWrite implements sim.Algorithm.
func (c *Callback) HandleWrite(now time.Time, e trace.Event) {
	k := objKey{e.Server, e.Object}
	clients := make([]string, 0, len(c.callbacks[k]))
	for client := range c.callbacks[k] {
		clients = append(clients, client)
	}
	sort.Strings(clients)
	for _, client := range clients {
		c.msg(now, e.Server, metrics.MsgInvalidate, sim.CtrlBytes)
		c.msg(now, e.Server, metrics.MsgAckInvalidate, sim.CtrlBytes)
		c.dropCopy(copyKey{client, k})
		c.chargeState(now, e.Server, -1)
	}
	delete(c.callbacks, k)
	c.bump(k)
	c.env.Rec.Write(0)
}
