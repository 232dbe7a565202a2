// Package transport abstracts the byte-moving layer under the volume-lease
// protocol: a message-oriented Conn/Listener pair with two implementations,
// real TCP (production) and an in-memory network with injectable latency
// and partitions (tests, examples, and fault-tolerance experiments — the
// paper's unreachable-client scenarios are driven through Memory's
// Partition switch).
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrClosed reports use of a closed connection or listener.
var ErrClosed = errors.New("transport: closed")

// ErrPartitioned reports a dial into a partitioned host pair.
var ErrPartitioned = errors.New("transport: network partitioned")

// Conn is a bidirectional, ordered, reliable message stream. Send and Recv
// may be called concurrently with each other; Send is safe for concurrent
// use by multiple goroutines.
type Conn interface {
	// Send transmits one message.
	Send(m wire.Message) error
	// Recv blocks for the next message. It returns io.EOF after a clean
	// close by the peer.
	Recv() (wire.Message, error)
	// Close tears the connection down; pending Recv calls unblock.
	Close() error
	// LocalAddr and RemoteAddr identify the endpoints.
	LocalAddr() string
	RemoteAddr() string
}

// Listener accepts inbound connections.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Close stops accepting; blocked Accept calls return ErrClosed.
	Close() error
	// Addr is the bound address.
	Addr() string
}

// Network creates listeners and dials peers.
type Network interface {
	// Listen binds addr.
	Listen(addr string) (Listener, error)
	// Dial connects to addr.
	Dial(addr string) (Conn, error)
}

// FromDialer is implemented by networks that can dial with an explicit
// local identity (Memory).
type FromDialer interface {
	DialFrom(localHost, addr string) (Conn, error)
}

// --- TCP ---

// TCP is the production Network backed by the operating system's TCP stack.
// The zero value batches outbound frames per connection (see tcpConn) and
// dials with a 10-second timeout.
type TCP struct {
	// DialTimeout bounds Dial; zero means 10 seconds.
	DialTimeout time.Duration
	// Stats, when non-nil, accumulates batch accounting (flushes, coalesced
	// frames, batch-size histogram) across every connection this network
	// creates or accepts.
	Stats *BatchStats
	// Taps observe every connection this network creates or accepts: each
	// message crossing one yields exactly one Frame, with the encode or
	// decode timed apart from the socket. Empty means unobserved.
	Taps []Tap
}

var _ Network = TCP{}

// Listen implements Network.
func (n TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l, opts: n}, nil
}

// Dial implements Network.
func (n TCP) Dial(addr string) (Conn, error) {
	to := n.DialTimeout
	if to <= 0 {
		to = 10 * time.Second
	}
	c, err := net.DialTimeout("tcp", addr, to)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newTCPConn(c, n), nil
}

type tcpListener struct {
	l    net.Listener
	opts TCP
}

func (t *tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(c, t.opts), nil
}

func (t *tcpListener) Close() error { return t.l.Close() }
func (t *tcpListener) Addr() string { return t.l.Addr().String() }

// closeFlushTimeout bounds the final drain in Close: a peer that stopped
// reading cannot wedge shutdown behind a full socket buffer.
const closeFlushTimeout = 5 * time.Second

// maxQueuedFrames bounds the outbound batch queue. A sender that outruns
// the flusher blocks here (classic backpressure) instead of growing the
// queue without limit — which would both unbound memory and starve the
// buffer pool, since every queued frame pins a pooled Buf.
const maxQueuedFrames = 1024

// connBufSize sizes the per-connection buffered reader and writer. The
// batcher's one-flush-per-drain policy only pays off if a drained batch fits
// the writer; bufio's default 4KB auto-flushes every dozen frames and gives
// the coalescing back to the kernel.
const connBufSize = 64 << 10

// tcpConn frames messages over a TCP socket. Outbound frames are encoded
// into pooled buffers and queued; a per-connection flusher goroutine drains
// whatever has accumulated into one buffered write and a single kernel
// flush per wakeup (writev-style coalescing). The flush-on-idle policy
// bounds latency without timers: the flusher writes as soon as frames are
// queued and flushes the moment the queue runs dry, so an isolated frame
// pays one syscall and a burst pays one flush for the whole batch. The cost
// is one flusher-goroutine wakeup in the latency path of an isolated frame
// — microseconds, visible in loopback ping-pong microbenchmarks, noise
// against real network round trips.
//
// The queue is bounded at maxQueuedFrames: a sender that outruns the
// flusher blocks on qRoom until a drain frees room, keeping pooled Bufs
// from piling up. The protocol layers above bound outstanding traffic
// anyway (ack-gated invalidation, one RPC per client sequence), so queues
// stay shallow in practice; see DESIGN.md §11.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	// sendMu serializes the buffered writer (the flusher's drains) and
	// guards the header scratch.
	sendMu sync.Mutex
	bw     *bufio.Writer

	stats *BatchStats
	tap   *connTap // nil when no tap observes this connection

	// err is the sticky write error: after the first failed write or flush
	// every subsequent Send fails fast without touching the socket.
	err atomic.Pointer[error]

	qMu    sync.Mutex
	qRoom  sync.Cond   // signaled when the flusher drains; senders wait here when the queue is full
	q      []*wire.Buf // frames awaiting the flusher; owned Bufs
	spare  []*wire.Buf // drained backing array, recycled on the next swap
	free   []*wire.Buf // drained Bufs recycled to Send (avoids cross-goroutine pool traffic)
	closed bool        // no new frames may enqueue; set by Close

	hdr [4]byte // frame-header scratch, guarded by sendMu (a stack array would escape into the bufio call)

	kick    chan struct{} // capacity 1: one pending kick covers any number of enqueues
	done    chan struct{} // closed by Close; tells the flusher to drain and exit
	flushed chan struct{} // closed by the flusher once the final drain completed

	closeOnce sync.Once
	closeErr  error
}

func newTCPConn(c net.Conn, opts TCP) *tcpConn {
	t := &tcpConn{
		c:       c,
		br:      bufio.NewReaderSize(c, connBufSize),
		bw:      bufio.NewWriterSize(c, connBufSize),
		stats:   opts.Stats,
		tap:     newConnTap(opts.Taps, c.LocalAddr().String(), c.RemoteAddr().String()),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
		flushed: make(chan struct{}),
	}
	t.qRoom.L = &t.qMu
	go t.flushLoop()
	return t
}

func (t *tcpConn) sendErr() error {
	if p := t.err.Load(); p != nil {
		return *p
	}
	return nil
}

//lint:allow hotalloc — sticky-error install; the CAS succeeds at most once per connection lifetime, so the &err box is a cold one-time cost
func (t *tcpConn) setErr(err error) { t.err.CompareAndSwap(nil, &err) }

// encode renders m into a pooled buffer. The flusher recycles drained Bufs
// into a per-connection freelist, which keeps the hot path off the global
// sync.Pool (whose cross-goroutine handoff — Send allocates, flusher
// releases — is measurably slower than a mutex-guarded stack).
func (t *tcpConn) encode(m wire.Message) (*wire.Buf, error) {
	var buf *wire.Buf
	t.qMu.Lock()
	if n := len(t.free); n > 0 {
		buf = t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
	}
	t.qMu.Unlock()
	if buf == nil {
		buf = wire.GetBuf()
	}
	b, err := wire.AppendEncode(buf.B[:0], m)
	if err != nil {
		buf.Release()
		return nil, err
	}
	buf.B = b
	return buf, nil
}

func (t *tcpConn) Send(m wire.Message) error {
	if t.tap != nil {
		return t.sendTapped(m)
	}
	buf, err := t.encode(m)
	if err != nil {
		return err
	}
	return t.enqueue(buf)
}

// sendTapped is Send with the encode timed apart from the queue, which can
// block on backpressure.
func (t *tcpConn) sendTapped(m wire.Message) error {
	//lint:allow clockcheck — codec timing is real elapsed time by design
	t0 := time.Now()
	buf, err := t.encode(m)
	//lint:allow clockcheck — codec timing is real elapsed time by design
	codec := time.Since(t0)
	if err != nil {
		return err
	}
	size := len(buf.B) // read before enqueue takes ownership
	if err := t.enqueue(buf); err != nil {
		return err
	}
	t.tap.emit(true, m, size, codec)
	return nil
}

// enqueue queues an encoded frame body for the flusher, taking ownership of
// buf: the connection releases it once the bytes reach the buffered writer
// (or the send fails).
//
//lint:hotpath
func (t *tcpConn) enqueue(buf *wire.Buf) error {
	t.qMu.Lock()
	for !t.closed && len(t.q) >= maxQueuedFrames && t.sendErr() == nil {
		t.qRoom.Wait() // backpressure: the flusher signals after each drain
	}
	if t.closed {
		t.qMu.Unlock()
		buf.Release()
		return ErrClosed
	}
	if err := t.sendErr(); err != nil {
		t.qMu.Unlock()
		buf.Release()
		return err
	}
	t.q = append(t.q, buf)
	t.qMu.Unlock()
	select {
	case t.kick <- struct{}{}:
	default: // a kick is already pending; the flusher will see this frame
	}
	return nil
}

// flushLoop is the connection's batcher. It exits only when Close fires
// done, after a final drain so queued frames are never lost (flush-then-
// close).
//
//lint:hotpath
func (t *tcpConn) flushLoop() {
	defer close(t.flushed)
	for {
		select {
		case <-t.kick:
			t.drain()
		case <-t.done:
			t.drain()
			return
		}
	}
}

// drain repeatedly swaps the queue out and writes every frame it finds,
// flushing once per pass — the flush-on-idle policy. The two backing
// arrays ping-pong between q and spare so steady-state enqueues allocate
// nothing. On write error the remaining frames are released, not written:
// the stream is broken mid-frame and anything after the failure point
// could never be parsed by the peer anyway.
func (t *tcpConn) drain() {
	for {
		t.qMu.Lock()
		if len(t.q) == 0 {
			t.qMu.Unlock()
			return
		}
		batch := t.q
		if t.spare != nil {
			t.q = t.spare[:0]
			t.spare = nil
		} else {
			t.q = nil
		}
		t.qRoom.Broadcast() // queue has room again; wake blocked senders
		t.qMu.Unlock()

		t.sendMu.Lock()
		err := t.sendErr()
		for _, b := range batch {
			if err == nil {
				err = t.writeFrame(b.B)
			}
		}
		if err == nil {
			err = t.bw.Flush()
		}
		if err != nil {
			t.setErr(err)
		}
		t.sendMu.Unlock()
		if err == nil { // a failed pass released its frames unwritten
			t.stats.record(len(batch))
		}

		// Recycle the drained Bufs into the freelist for encode, and hand the
		// backing array back as spare. Both must happen before senders can
		// append over the array, so everything runs under one qMu hold;
		// Release (freelist full, or an oversized one-off frame) is the rare
		// path.
		t.qMu.Lock()
		for i, b := range batch {
			if len(t.free) < maxQueuedFrames && cap(b.B) <= connBufSize {
				t.free = append(t.free, b)
			} else {
				b.Release()
			}
			batch[i] = nil
		}
		if t.spare == nil {
			t.spare = batch[:0]
		}
		t.qMu.Unlock()
	}
}

// writeFrame writes one length-prefixed frame into the buffered writer.
// Callers hold sendMu (which also guards the header scratch). It writes to
// the concrete *bufio.Writer, not an io.Writer, so the header bytes never
// escape.
func (t *tcpConn) writeFrame(body []byte) error {
	if len(body) > wire.MaxFrame {
		return wire.ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(t.hdr[:], uint32(len(body)))
	if _, err := t.bw.Write(t.hdr[:]); err != nil {
		//lint:allow hotalloc — error branch: the socket is already broken, the connection is about to die
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := t.bw.Write(body); err != nil {
		//lint:allow hotalloc — error branch: the socket is already broken, the connection is about to die
		return fmt.Errorf("transport: write body: %w", err)
	}
	return nil
}

func (t *tcpConn) Recv() (wire.Message, error) {
	buf, err := wire.ReadFrameBuf(t.br)
	if err != nil {
		return nil, err
	}
	if t.tap != nil {
		return t.decodeTapped(buf)
	}
	m, err := wire.Decode(buf.B)
	buf.Release()
	return m, err
}

// decodeTapped is Recv's decode with the clock around it.
func (t *tcpConn) decodeTapped(buf *wire.Buf) (wire.Message, error) {
	//lint:allow clockcheck — codec timing is real elapsed time by design
	t0 := time.Now()
	m, err := wire.Decode(buf.B)
	//lint:allow clockcheck — codec timing is real elapsed time by design
	codec := time.Since(t0)
	size := len(buf.B)
	buf.Release()
	if err != nil {
		return nil, err
	}
	t.tap.emit(false, m, size, codec)
	return m, nil
}

// Close flushes queued frames, then tears the connection down: frames
// accepted by Send are on the wire before the socket closes. A write
// deadline bounds the final drain so a wedged peer cannot block Close;
// pending Recv calls unblock when the socket closes.
func (t *tcpConn) Close() error {
	t.closeOnce.Do(func() {
		t.qMu.Lock()
		t.closed = true     // no frames enqueue after this; see enqueue
		t.qRoom.Broadcast() // senders blocked on backpressure fail with ErrClosed
		t.qMu.Unlock()
		//lint:allow clockcheck — socket I/O deadline for the close-flush, not lease time
		t.c.SetWriteDeadline(time.Now().Add(closeFlushTimeout))
		close(t.done)
		<-t.flushed // the flusher's final drain has completed
		t.closeErr = t.c.Close()
		t.qMu.Lock()
		for i, b := range t.free { // return recycled Bufs to the shared pool
			b.Release()
			t.free[i] = nil
		}
		t.free = nil
		t.qMu.Unlock()
	})
	return t.closeErr
}

func (t *tcpConn) LocalAddr() string  { return t.c.LocalAddr().String() }
func (t *tcpConn) RemoteAddr() string { return t.c.RemoteAddr().String() }

// --- In-memory network ---

// Memory is an in-process Network for deterministic tests and fault
// injection. Addresses are "host:port" strings; partitions are declared
// between host parts, so partitioning "client-1" from "server" kills every
// connection between them and blocks new dials. Messages crossing a
// partitioned link are silently dropped, modeling the paper's unreachable
// clients (the sender cannot tell a drop from a slow peer).
type Memory struct {
	// Taps observe both ends of every connection, as TCP.Taps does; sizes
	// are wire.Size and codec time is zero, since nothing is serialized. Set
	// before the first Dial.
	Taps []Tap

	mu         sync.Mutex
	listeners  map[string]*memListener
	partitions map[[2]string]struct{}
	latency    time.Duration
}

var _ Network = (*Memory)(nil)

// NewMemory returns an empty in-memory network.
func NewMemory() *Memory {
	return &Memory{
		listeners:  make(map[string]*memListener),
		partitions: make(map[[2]string]struct{}),
	}
}

// SetLatency sets a fixed one-way delivery delay for all future messages.
func (n *Memory) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.latency = d
}

// Partition cuts connectivity between hosts a and b (both directions).
func (n *Memory) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[hostPair(a, b)] = struct{}{}
}

// Heal restores connectivity between hosts a and b.
func (n *Memory) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, hostPair(a, b))
}

// Partitioned reports whether hosts a and b are cut off.
func (n *Memory) Partitioned(a, b string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.partitions[hostPair(a, b)]
	return ok
}

func hostPair(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Host extracts the host part of an addr ("host:port" or bare host).
func Host(addr string) string {
	if i := strings.LastIndexByte(addr, ':'); i >= 0 {
		return addr[:i]
	}
	return addr
}

// Listen implements Network.
func (n *Memory) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: %s already bound", addr)
	}
	l := &memListener{net: n, addr: addr, backlog: make(chan *memConn, 64)}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Network. The local address is synthesized from the
// DialFrom host if set via DialAs; otherwise "anon".
func (n *Memory) Dial(addr string) (Conn, error) {
	return n.DialFrom("anon", addr)
}

// DialFrom connects to addr with an explicit local host name, so that
// partitions involving this endpoint apply.
func (n *Memory) DialFrom(localHost, addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: connection refused: %s", addr)
	}
	if _, cut := n.partitions[hostPair(localHost, Host(addr))]; cut {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s <-> %s", ErrPartitioned, localHost, Host(addr))
	}
	n.mu.Unlock()

	clientSide := &memConn{
		net: n, local: localHost + ":0", remote: addr,
		in: make(chan wire.Message, 1024), done: make(chan struct{}),
	}
	clientSide.tap = newConnTap(n.Taps, clientSide.local, clientSide.remote)
	serverSide := &memConn{
		net: n, local: addr, remote: localHost + ":0",
		in: make(chan wire.Message, 1024), done: make(chan struct{}),
	}
	serverSide.tap = newConnTap(n.Taps, serverSide.local, serverSide.remote)
	clientSide.peer, serverSide.peer = serverSide, clientSide

	select {
	case l.backlog <- serverSide:
	case <-l.done():
		return nil, ErrClosed
	}
	return clientSide, nil
}

type memListener struct {
	net     *Memory
	addr    string
	backlog chan *memConn

	closeOnce sync.Once
	closed    chan struct{}
	closeInit sync.Once
}

func (l *memListener) done() chan struct{} {
	l.closeInit.Do(func() { l.closed = make(chan struct{}) })
	return l.closed
}

func (l *memListener) Accept() (Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done():
		return nil, ErrClosed
	}
}

func (l *memListener) Close() error {
	l.closeOnce.Do(func() {
		// Unbind before waking Accept: whoever sees ErrClosed can rebind.
		l.net.mu.Lock()
		delete(l.net.listeners, l.addr)
		l.net.mu.Unlock()
		close(l.done())
	})
	return nil
}

func (l *memListener) Addr() string { return l.addr }

type memConn struct {
	net    *Memory
	local  string
	remote string
	peer   *memConn
	in     chan wire.Message
	tap    *connTap // nil when no tap observes this connection

	// Delayed delivery (SetLatency) runs through a single per-connection
	// goroutine draining delayQ in FIFO order. One goroutine per direction
	// keeps the documented ordering guarantee: independent timers per
	// message (the old implementation) raced each other into the peer's
	// inbox and could reorder even back-to-back sends.
	delayMu   sync.Mutex
	delayQ    []delayedMsg
	delayHead int // first undelivered entry; delayQ[:delayHead] is consumed
	delayKick chan struct{}
	delayOnce sync.Once

	closeOnce sync.Once
	done      chan struct{}
}

type delayedMsg struct {
	m   wire.Message
	due time.Time
}

// Send delivers to the peer's inbox unless the link is partitioned (silent
// drop) or either side is closed.
func (c *memConn) Send(m wire.Message) error {
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	if c.tap != nil {
		c.tap.emit(true, m, wire.Size(m), 0)
	}
	if c.net.Partitioned(Host(c.local), Host(c.remote)) {
		return nil // dropped in flight: the sender cannot tell
	}
	c.net.mu.Lock()
	latency := c.net.latency
	c.net.mu.Unlock()
	if latency > 0 {
		c.delayOnce.Do(func() {
			c.delayKick = make(chan struct{}, 1)
			go c.deliverLoop()
		})
		c.delayMu.Lock()
		//lint:allow clockcheck — in-flight delay is simulated wire time, real by design
		c.delayQ = append(c.delayQ, delayedMsg{m: m, due: time.Now().Add(latency)})
		c.delayMu.Unlock()
		select {
		case c.delayKick <- struct{}{}:
		default:
		}
		return nil
	}
	select {
	case c.peer.in <- m:
	case <-c.peer.done:
	}
	return nil
}

// deliverLoop drains delayQ strictly in enqueue order, sleeping until each
// message's due time. Closing the connection drops whatever is still in
// flight, matching the undelayed path's semantics (messages racing a close
// are lost).
func (c *memConn) deliverLoop() {
	// One reusable timer for the whole loop: a fresh time.NewTimer per
	// message shows up as per-message garbage in every latency-injected
	// benchmark. The timer is always expired-and-drained when Reset is
	// called (we only loop back after receiving from timer.C).
	//lint:allow clockcheck — sleeping out the injected wire latency
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		c.delayMu.Lock()
		var next delayedMsg
		ok := c.delayHead < len(c.delayQ)
		if ok {
			// Pop by head index instead of reslicing: delayQ keeps its
			// backing array, so the steady state appends without
			// reallocating. The consumed slot is zeroed to release the
			// message.
			next = c.delayQ[c.delayHead]
			c.delayQ[c.delayHead] = delayedMsg{}
			c.delayHead++
			if c.delayHead == len(c.delayQ) {
				c.delayQ = c.delayQ[:0]
				c.delayHead = 0
			}
		}
		c.delayMu.Unlock()
		if !ok {
			select {
			case <-c.delayKick:
				continue
			case <-c.done:
				return
			}
		}
		//lint:allow clockcheck — sleeping out the injected wire latency
		timer.Reset(time.Until(next.due))
		select {
		case <-timer.C:
		case <-c.done:
			timer.Stop()
			return
		}
		// Re-check the partition at delivery time: a cut that happens while
		// the message is in flight loses it.
		if c.net.Partitioned(Host(c.local), Host(c.remote)) {
			continue
		}
		select {
		case c.peer.in <- next.m:
		case <-c.peer.done:
		}
	}
}

func (c *memConn) Recv() (wire.Message, error) {
	var m wire.Message
	select {
	case m = <-c.in:
	case <-c.done:
		// Drain anything already delivered before the close.
		select {
		case m = <-c.in:
		default:
			return nil, ErrClosed
		}
	}
	if c.tap != nil {
		c.tap.emit(false, m, wire.Size(m), 0)
	}
	return m, nil
}

// Close closes both ends. The two Onces are taken one after the other, never
// nested: both ends closing at once would otherwise each hold its own while
// waiting for the other's.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	c.peer.closeOnce.Do(func() { close(c.peer.done) })
	return nil
}

func (c *memConn) LocalAddr() string  { return c.local }
func (c *memConn) RemoteAddr() string { return c.remote }
