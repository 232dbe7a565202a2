package transport

import (
	"time"

	"repro/internal/wire"
)

// FrameAccountant receives one callback per message crossing an accounted
// connection. sent reports direction, m is the message itself (so the
// accountant can read kind, volume, and sequence), size its encoded length
// in bytes (wire.Size on transports that never serialize), and codec the
// wall time spent encoding (sent) or decoding (received) the message —
// zero on the in-memory transport, which passes Message values through
// channels without serializing. Called inline on Send/Recv, so
// implementations must be fast, non-blocking, and safe for concurrent use.
type FrameAccountant interface {
	Frame(sent bool, m wire.Message, size int, codec time.Duration)
}

// FrameBufSender is implemented by connections that can transmit a
// pre-encoded frame body held in a pooled Buf (tcpConn). The accounting
// layer uses it to time wire.AppendEncode separately from the kernel write.
// The connection takes ownership of the Buf and releases it once the bytes
// are written (or the send fails), so a steady-state accounted send
// allocates nothing.
type FrameBufSender interface {
	SendFrameBuf(buf *wire.Buf) error
}

// FrameBufReceiver is implemented by connections that can hand over a raw
// frame body without decoding it (tcpConn). The accounting layer uses it
// to time wire.Decode separately from the blocking read. The caller owns
// the returned Buf and must Release it after decoding.
type FrameBufReceiver interface {
	RecvFrameBuf() (*wire.Buf, error)
}

// ConnAccounter mints one FrameAccountant per connection, keyed by the
// connection's endpoints. Returning nil leaves that connection unaccounted.
type ConnAccounter interface {
	AccountConn(local, remote string) FrameAccountant
}

// AccountNetwork wraps a Network so every connection it creates (dialed or
// accepted) charges its traffic to an accountant minted from a. The cost
// layer plugs per-kind/per-volume/per-connection accounting in here without
// the protocol packages knowing; a nil a returns n unchanged.
//
// Wrap order matters: AccountNetwork must wrap the raw network directly
// (innermost) so its connections still expose FrameBufSender and
// FrameBufReceiver; apply ObserveNetwork and other wrappers outside it.
//
// The transport is the stack's legitimate wall-clock layer, so the codec
// durations handed to Frame are real elapsed time even under a simulated
// protocol clock.
func AccountNetwork(n Network, a ConnAccounter) Network {
	if a == nil {
		return n
	}
	return &accountedNetwork{inner: n, a: a}
}

type accountedNetwork struct {
	inner Network
	a     ConnAccounter
}

func (n *accountedNetwork) Listen(addr string) (Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &accountedListener{inner: l, a: n.a}, nil
}

func (n *accountedNetwork) Dial(addr string) (Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return accountConn(c, n.a), nil
}

// DialFrom forwards identity-preserving dials (see Memory.DialFrom) so an
// accounted in-memory network still honors partitions by host name.
func (n *accountedNetwork) DialFrom(localHost, addr string) (Conn, error) {
	fd, ok := n.inner.(FromDialer)
	if !ok {
		return n.Dial(addr)
	}
	c, err := fd.DialFrom(localHost, addr)
	if err != nil {
		return nil, err
	}
	return accountConn(c, n.a), nil
}

type accountedListener struct {
	inner Listener
	a     ConnAccounter
}

func (l *accountedListener) Accept() (Conn, error) {
	c, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	return accountConn(c, l.a), nil
}

func (l *accountedListener) Close() error { return l.inner.Close() }
func (l *accountedListener) Addr() string { return l.inner.Addr() }

func accountConn(c Conn, a ConnAccounter) Conn {
	fa := a.AccountConn(c.LocalAddr(), c.RemoteAddr())
	if fa == nil {
		return c
	}
	ac := &accountedConn{Conn: c, fa: fa}
	ac.fbs, _ = c.(FrameBufSender)
	ac.fbr, _ = c.(FrameBufReceiver)
	return ac
}

type accountedConn struct {
	Conn
	fa  FrameAccountant
	fbs FrameBufSender   // nil on transports that never serialize
	fbr FrameBufReceiver // nil on transports that never serialize
}

func (c *accountedConn) Send(m wire.Message) error {
	if c.fbs != nil {
		buf := wire.GetBuf()
		//lint:allow clockcheck — codec timing is real elapsed time by design
		t0 := time.Now()
		b, err := wire.AppendEncode(buf.B[:0], m)
		//lint:allow clockcheck — codec timing is real elapsed time by design
		encode := time.Since(t0)
		if err != nil {
			buf.Release()
			return err
		}
		buf.B = b
		size := len(b) // read before SendFrameBuf takes ownership
		if err := c.fbs.SendFrameBuf(buf); err != nil {
			return err
		}
		c.fa.Frame(true, m, size, encode)
		return nil
	}
	// No serialization happens on this transport; charge the sized length
	// with zero codec time.
	err := c.Conn.Send(m)
	if err == nil {
		c.fa.Frame(true, m, wire.Size(m), 0)
	}
	return err
}

func (c *accountedConn) Recv() (wire.Message, error) {
	if c.fbr != nil {
		buf, err := c.fbr.RecvFrameBuf()
		if err != nil {
			return nil, err
		}
		//lint:allow clockcheck — codec timing is real elapsed time by design
		t0 := time.Now()
		m, err := wire.Decode(buf.B)
		//lint:allow clockcheck — codec timing is real elapsed time by design
		decode := time.Since(t0)
		size := len(buf.B)
		buf.Release()
		if err != nil {
			return nil, err
		}
		c.fa.Frame(false, m, size, decode)
		return m, nil
	}
	m, err := c.Conn.Recv()
	if err == nil {
		c.fa.Frame(false, m, wire.Size(m), 0)
	}
	return m, err
}
