package transport

import (
	"time"

	"repro/internal/wire"
)

// Frame is the one event a connection produces for each message that
// crosses it. Everything that counts, times or traces wire traffic — cost
// accounting, the per-kind transport counters, the message events of the
// protocol trace — is a Sink of this event; nothing else observes frames.
type Frame struct {
	// Sent is the direction: true from Send, false from Recv.
	Sent bool
	Msg  wire.Message
	// Size is the encoded length in bytes (wire.Size on Memory, which never
	// serializes).
	Size int
	// Codec is the wall time spent encoding (sent) or decoding (received) the
	// message; zero on Memory. The transport is the stack's legitimate
	// wall-clock layer, so this is real elapsed time even under a simulated
	// protocol clock.
	Codec time.Duration
	// Local and Remote are the connection's endpoints.
	Local, Remote string
}

// Sink receives the frames of one connection. Observe is called inline on
// Send and Recv, so implementations must be fast, non-blocking, and safe for
// concurrent use.
type Sink interface {
	Observe(Frame)
}

// Tap is attached to a network (TCP.Taps, Memory.Taps) and asked once per
// connection, dialed or accepted, for the sink of that connection's frames.
// Returning nil leaves the connection unobserved by this tap.
type Tap interface {
	TapConn(local, remote string) Sink
}

// connTap is one connection's sink list. A connection with no sinks holds a
// nil *connTap, so an untapped Send or Recv pays one nil check.
type connTap struct {
	sinks         []Sink
	local, remote string
}

func newConnTap(taps []Tap, local, remote string) *connTap {
	var sinks []Sink
	for _, t := range taps {
		if t == nil {
			continue
		}
		if s := t.TapConn(local, remote); s != nil {
			sinks = append(sinks, s)
		}
	}
	if sinks == nil {
		return nil
	}
	return &connTap{sinks: sinks, local: local, remote: remote}
}

func (c *connTap) emit(sent bool, m wire.Message, size int, codec time.Duration) {
	f := Frame{Sent: sent, Msg: m, Size: size, Codec: codec, Local: c.local, Remote: c.remote}
	for _, s := range c.sinks {
		s.Observe(f)
	}
}
