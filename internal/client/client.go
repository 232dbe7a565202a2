// Package client implements the client side of the volume-lease protocol
// (the paper's Figure 4): a cache that serves reads locally only while it
// holds unexpired leases on both the object and the object's volume, renews
// lapsed leases from the server, responds to server-initiated
// invalidations, and runs the reconnection protocol (MUST_RENEW_ALL /
// RENEW_OBJ_LEASES) when the server demands it.
//
// A Client owns one connection to one server. Reads are strongly
// consistent: a read never returns data that the server had overwritten
// (and committed) before the read began, as long as clocks advance at the
// same rate. A lease is anchored on the client's monotonic clock the moment
// it is installed and checked against that clock alone afterwards, so a step
// of the client's wall clock neither extends nor shortens a lease it holds;
// the wall clocks of client and server have to agree (within Skew) only at
// the instant of install, because the wire still carries an absolute expiry.
package client

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Errors.
var (
	// ErrClosed reports use of a closed client.
	ErrClosed = errors.New("client: closed")
	// ErrTimeout reports an RPC that got no reply in time.
	ErrTimeout = errors.New("client: request timed out")
	// ErrRetry reports an RPC aborted by an automatic reconnection; the
	// operation can be retried on the fresh connection.
	ErrRetry = errors.New("client: connection replaced mid-request; retry")
)

// ServerError is a protocol-level error returned by the server.
type ServerError struct {
	Code wire.ErrorCode
	Msg  string
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("client: server error %d: %s", e.Code, e.Msg)
}

// Config parameterizes a Client.
type Config struct {
	// ID identifies this client to the server.
	ID core.ClientID
	// Clock drives lease validity checks (its Mono reading) and stamps
	// events and snapshots (its Now); defaults to the system clock.
	Clock clock.Clock
	// Skew is the safety margin subtracted from lease expiries before
	// trusting them, absorbing clock drift and message latency. Defaults
	// to 50ms.
	Skew time.Duration
	// Timeout bounds each wait for a reply: an RPC's round trip, and each
	// round of a volume conversation. Its timer is stopped when the reply
	// arrives, so an answered RPC leaves no timer pending on the Clock.
	// Defaults to 10s.
	Timeout time.Duration
	// Redial enables automatic reconnection: when the connection drops,
	// the client redials the server with capped exponential backoff,
	// re-sends Hello, and resumes with its cache intact. RPCs in flight at
	// the moment of the drop still fail; the next operation retries on the
	// fresh connection. If the server crashed and restarted, its bumped
	// volume epoch forces the reconnection protocol on the first renewal,
	// so the surviving cache is resynchronized safely. Only effective for
	// clients built with Dial (NewOnConn has no dialer).
	Redial bool
	// OnInvalidate, when non-nil, is called with every batch of objects the
	// server invalidates, after the client has dropped them and BEFORE the
	// acknowledgment is sent back. Hierarchical caches (internal/proxy) use it
	// to invalidate their own downstream clients first, preserving end-to-end
	// consistency: the origin's write completes only after the whole subtree
	// has dropped the object. For an Invalidate push the hook and the ack run
	// off the connection's reader, so a hook that blocks delays that ack only,
	// not other frames; hooks for separate pushes may run concurrently, and
	// Close waits for those in flight. Objects invalidated inside a volume
	// renewal reach the hook on the renewing goroutine. tc is the causal trace
	// context the invalidation carried (zero when the write was untraced), so
	// the hook's own fan-out can join the originating write's trace.
	OnInvalidate func(objects []core.ObjectID, tc wire.TraceContext)
	// Obs, when non-nil, receives protocol events (invalidations received,
	// redials, reconnection rounds) and exposes the cache counters as
	// scrape-time gauges. A nil Obs costs the hot paths a single nil check.
	Obs *obs.Observer
	// Logf, when non-nil, receives debug logging.
	Logf func(format string, args ...any)

	// pooled marks one of a Pool's per-server clients. They share the pool's
	// ID, so their counters would collide under one series name; the pool's
	// lease_pool_* series export their sum instead.
	pooled bool
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Skew <= 0 {
		c.Skew = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
}

// firstRedialDelay is the first delay before a redial; successive delays
// double up to maxRedialDelay, each jittered by ±50% so clients
// disconnected by the same server restart spread their retries instead of
// reconnecting in lockstep. The jitter may exceed maxRedialDelay by up to
// 50%.
const (
	firstRedialDelay = 10 * time.Millisecond
	maxRedialDelay   = time.Second
)

// Client is a connected volume-lease cache.
type Client struct {
	cfg Config
	// dialer re-establishes the connection for Redial; nil when built on a
	// pre-existing conn.
	dialer func() (transport.Conn, error)

	mu     sync.Mutex
	conn   transport.Conn
	h      *core.Holder     // every lease and copy, and the rules of Figure 4 over them
	rpcs   map[uint64]*call // the conversations open, by sequence number
	free   []*call          // ended conversations' calls, for the next to reuse
	seq    uint64
	err    error // sticky transport error
	closed bool

	// renewMu serializes volume renewals (RenewVolume), so their multi-round
	// conversations of Figure 4 do not interleave. Invalidations do not take
	// it; their holder update runs under mu.
	renewMu sync.Mutex

	done chan struct{}
	wg   sync.WaitGroup

	// stats
	localReads  int64
	serverReads int64
	invalsSeen  int64
}

// Dial connects to a volume-lease server and performs the Hello handshake.
func Dial(net transport.Network, addr string, cfg Config) (*Client, error) {
	cfg.fillDefaults()
	if cfg.ID == "" {
		return nil, errors.New("client: Config.ID is required")
	}
	dialer := func() (transport.Conn, error) {
		if fd, ok := net.(transport.FromDialer); ok {
			// Preserve the client's identity as the host for partition tests.
			return fd.DialFrom(string(cfg.ID), addr)
		}
		return net.Dial(addr)
	}
	conn, err := dialer()
	if err != nil {
		return nil, err
	}
	c, err := NewOnConn(conn, cfg)
	if err != nil {
		return nil, err
	}
	c.dialer = dialer
	return c, nil
}

// NewOnConn wraps an established connection (it sends the Hello handshake).
func NewOnConn(conn transport.Conn, cfg Config) (*Client, error) {
	cfg.fillDefaults()
	if cfg.ID == "" {
		return nil, errors.New("client: Config.ID is required")
	}
	c := &Client{
		cfg:  cfg,
		conn: conn,
		h:    core.NewHolder(cfg.Skew),
		rpcs: make(map[uint64]*call),
		done: make(chan struct{}),
	}
	if err := conn.Send(wire.Hello{Client: cfg.ID}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client: hello: %w", err)
	}
	c.initObs()
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// initObs exposes the cache-behavior counters as scrape-time gauges, labeled
// by client ID.
func (c *Client) initObs() {
	reg := c.cfg.Obs.Reg()
	if reg == nil || c.cfg.pooled {
		return
	}
	labels := fmt.Sprintf("{client=%q}", string(c.cfg.ID))
	reg.GaugeFunc("lease_client_local_reads_total"+labels, func() float64 {
		local, _, _ := c.Stats()
		return float64(local)
	})
	reg.GaugeFunc("lease_client_server_reads_total"+labels, func() float64 {
		_, server, _ := c.Stats()
		return float64(server)
	})
	reg.GaugeFunc("lease_client_invalidations_total"+labels, func() float64 {
		_, _, invals := c.Stats()
		return float64(invals)
	})
}

// emit sends a protocol event when tracing is live, stamping Node and At
// after the enabled check so the disabled path never reads the clock. The
// per-read and per-invalidation call sites check Tracing themselves first,
// so without an observer they do not even build the event.
func (c *Client) emit(e obs.Event) {
	if !c.cfg.Obs.Tracing() {
		return
	}
	e.Node = string(c.cfg.ID)
	if e.Client == "" {
		e.Client = c.cfg.ID
	}
	if e.At.IsZero() {
		e.At = c.cfg.Clock.Now()
	}
	c.cfg.Obs.Emit(e)
}

// Close tears the client down.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	conn := c.conn
	c.mu.Unlock()
	conn.Close()
	c.wg.Wait()
	return nil
}

// ID reports the client's identity.
func (c *Client) ID() core.ClientID { return c.cfg.ID }

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf("client %s: "+format, append([]any{c.cfg.ID}, args...)...)
	}
}

// Stats reports cache behavior counters: reads served entirely from the
// local cache, reads that required at least one server round trip, and
// invalidations received.
func (c *Client) Stats() (localReads, serverReads, invalidations int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localReads, c.serverReads, c.invalsSeen
}

// readLoop routes inbound messages: nonzero sequence numbers resolve
// in-flight RPCs; zero-sequence messages are server pushes. With Redial
// enabled it re-establishes dropped connections instead of failing. Only
// this goroutine replaces c.conn, so it reads it again only after a redial.
func (c *Client) readLoop() {
	defer c.wg.Done()
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	for {
		m, err := conn.Recv()
		if err != nil {
			lost := fmt.Errorf("client: connection lost: %w", err)
			if c.cfg.Redial && c.dialer != nil && !c.isClosed() {
				c.failPending(lost)
				if conn = c.redial(); conn != nil {
					continue
				}
			}
			c.fail(lost)
			return
		}
		if seq := m.Sequence(); seq != 0 {
			if !c.deliver(seq, m) {
				c.logf("dropping reply for seq %d, which no open conversation awaits: %s", seq, m.Kind())
			}
			continue
		}
		switch v := m.(type) {
		case wire.Invalidate:
			c.handleInvalidate(v)
		default:
			c.logf("unexpected push %s", m.Kind())
		}
	}
}

// deliver hands m to the open conversation seq, reporting false when there
// is none or its channel is full. The lookup and the send share one hold of
// c.mu, so a call is never recycled with a reply on its way to it. The
// channel has room for the one reply the conversation awaits, so a full one
// means the server answered a request twice: the reply is dropped, as a
// reply to a conversation that has ended is.
func (c *Client) deliver(seq uint64, m wire.Message) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	cl, ok := c.rpcs[seq]
	if !ok {
		return false
	}
	select {
	case cl.ch <- m:
		return true
	default:
		return false
	}
}

// fail marks the client permanently broken and unblocks all waiters.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.failPending(err)
}

// failPending aborts in-flight RPCs without poisoning the client (used on
// redial: the next operation retries on the new connection).
func (c *Client) failPending(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for seq, cl := range c.rpcs {
		// Its channel is closed for good, so the call is not recycled: end
		// finds it gone from rpcs.
		close(cl.ch)
		delete(c.rpcs, seq)
	}
}

func (c *Client) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// redial re-establishes the connection with capped exponential backoff and
// returns it; nil when the client was closed while retrying. A successful
// redial is one EvRedial record (Dur = the outage, N = dial attempts), so
// reconnection storms show up in /debug/events.
func (c *Client) redial() transport.Conn {
	bo := newRedialBackoff(firstRedialDelay, maxRedialDelay, c.cfg.ID, c.cfg.Clock.Now().UnixNano())
	rec, start := c.startPhase(obs.EvRedial, wire.TraceContext{})
	attempts := 0
	for {
		select {
		case <-c.done:
			return nil
		default:
		}
		attempts++
		conn, err := c.dialer()
		if err == nil {
			if err = conn.Send(wire.Hello{Client: c.cfg.ID}); err == nil {
				c.mu.Lock()
				closed := c.closed
				if !closed {
					c.conn = conn
				}
				c.mu.Unlock()
				if closed {
					// Close ran during the dial and closed the old
					// connection; installing this one would leave the read
					// loop, and so Close, waiting on it forever.
					conn.Close()
					return nil
				}
				rec.N = attempts
				c.endPhase(rec, start)
				c.logf("reconnected")
				return conn
			}
			conn.Close()
		}
		delay := bo.next()
		c.logf("redial failed: %v (retrying in %v)", err, delay)
		select {
		case <-c.done:
			return nil
		case <-c.cfg.Clock.After(delay):
		}
	}
}

// send transmits on the current connection.
func (c *Client) send(m wire.Message) error {
	c.mu.Lock()
	conn := c.conn
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return conn.Send(m)
}

// handleInvalidate processes a server-initiated INVALIDATE on the reader
// goroutine and acknowledges it. The holder drops the objects before the next
// frame is read, so a grant queued behind this Invalidate on the connection
// sees the bumped generation. Without an OnInvalidate hook the ack goes out
// here; with one, the hook and then the ack run on their own goroutine, so a
// hook that waits out a downstream round holds up no later frame on the
// connection. Those goroutines are bounded by the objects held: the server
// sends an object's next Invalidate only after this ack, or once the lease
// it waits on has ended. The invalidation's trace context is handed to the
// hook and echoed in the ack, so the originating write's trace spans the
// whole round trip.
func (c *Client) handleInvalidate(inv wire.Invalidate) {
	c.traceDrops(inv.Objects, "")
	c.mu.Lock()
	c.h.Invalidate(inv.Objects)
	c.invalsSeen += int64(len(inv.Objects))
	c.mu.Unlock()
	if c.cfg.OnInvalidate == nil {
		c.ack(inv)
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.relay(inv.Objects, inv.Trace)
		c.ack(inv)
	}()
}

// ack acknowledges inv, echoing its write numbers and trace context.
func (c *Client) ack(inv wire.Invalidate) {
	if err := c.send(wire.AckInvalidate{Objects: inv.Objects, Trace: inv.Trace, Writes: inv.Writes}); err != nil {
		c.logf("ack failed: %v", err)
	}
}

// traceDrops emits an event for each dropped object; vid is the volume the
// events name, when the message carried one.
func (c *Client) traceDrops(objects []core.ObjectID, vid core.VolumeID) {
	if c.cfg.Obs.Tracing() {
		for _, oid := range objects {
			c.emit(obs.Event{Type: obs.EvInvalRecv, Object: oid, Volume: vid})
		}
	}
}

// relay hands dropped objects to the OnInvalidate hook, if there is one.
func (c *Client) relay(objects []core.ObjectID, tc wire.TraceContext) {
	if c.cfg.OnInvalidate != nil && len(objects) > 0 {
		c.cfg.OnInvalidate(objects, tc)
	}
}

// call is one conversation: the channel the reader delivers its replies on,
// and the timer bounding each wait for one, made by the call's first wait.
// A conversation that ends returns its call to c.free for the next to reuse,
// so an RPC allocates neither; one failPending aborted is dropped instead,
// its channel closed.
type call struct {
	seq   uint64
	conn  transport.Conn // the connection the conversation was opened on
	ch    chan wire.Message
	timer clock.Timer
}

// begin opens a conversation; c.mu must be held. It takes a call off the
// free list, or makes one, and registers it under a new sequence number.
func (c *Client) begin() (*call, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.err != nil {
		return nil, c.err
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl, c.free[n-1] = c.free[n-1], nil
		c.free = c.free[:n-1]
	} else {
		// One slot, for a reply that beats its wait: a conversation has
		// one request outstanding, and a server answers each request once.
		cl = &call{ch: make(chan wire.Message, 1)}
	}
	c.seq++
	cl.seq, cl.conn = c.seq, c.conn
	c.rpcs[cl.seq] = cl
	return cl, nil
}

// open is begin under its own hold of c.mu.
func (c *Client) open() (*call, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.begin()
}

// end closes a conversation; c.mu must be held. Under that hold no reply
// can reach cl any more, so one that arrived unread is discarded and cl
// goes back on the free list, unless failPending already aborted it.
func (c *Client) end(cl *call) {
	if c.rpcs[cl.seq] != cl {
		return
	}
	delete(c.rpcs, cl.seq)
	for len(cl.ch) > 0 {
		<-cl.ch
	}
	c.free = append(c.free, cl)
}

// release is end under its own hold of c.mu.
func (c *Client) release(cl *call) {
	c.mu.Lock()
	c.end(cl)
	c.mu.Unlock()
}

// rpc sends req on the conversation's connection and waits for the next
// reply to it.
func (c *Client) rpc(cl *call, req wire.Message) (wire.Message, error) {
	if err := cl.conn.Send(req); err != nil {
		return nil, fmt.Errorf("client: send %s: %w", req.Kind(), err)
	}
	return c.await(cl)
}

// await waits for the next message of an open conversation, at most
// Timeout, and stops the timer whichever way the wait ends.
func (c *Client) await(cl *call) (wire.Message, error) {
	if cl.timer == nil {
		cl.timer = c.cfg.Clock.NewTimer(c.cfg.Timeout)
	} else {
		cl.timer.Reset(c.cfg.Timeout)
	}
	defer cl.timer.Stop()
	select {
	case m, ok := <-cl.ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				// Aborted by a redial: the connection was replaced while
				// this conversation was in flight. The caller may retry.
				err = ErrRetry
			}
			return nil, err
		}
		if e, isErr := m.(wire.Error); isErr {
			return nil, &ServerError{Code: e.Code, Msg: e.Msg}
		}
		return m, nil
	case <-cl.timer.C():
		return nil, fmt.Errorf("%w after %v (seq %d)", ErrTimeout, c.cfg.Timeout, cl.seq)
	case <-c.done:
		return nil, ErrClosed
	}
}
