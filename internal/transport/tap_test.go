package transport

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// recordingTap captures every Frame of every connection it is asked about.
type recordingTap struct {
	mu     sync.Mutex
	frames []Frame
	conns  int // TapConn calls
}

func (r *recordingTap) TapConn(local, remote string) Sink {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.conns++
	return r
}

func (r *recordingTap) Observe(f Frame) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frames = append(r.frames, f)
}

func (r *recordingTap) byDir(sent bool) []Frame {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Frame
	for _, f := range r.frames {
		if f.Sent == sent {
			out = append(out, f)
		}
	}
	return out
}

// decliningTap leaves every connection unobserved.
type decliningTap struct{}

func (decliningTap) TapConn(local, remote string) Sink { return nil }

func tappedMemory(taps ...Tap) *Memory {
	n := NewMemory()
	n.Taps = taps
	return n
}

// checkOneEventEach sends msgs from a to b and asserts the tap saw exactly
// one sent and one received event per message, in order, each sized
// wire.Size(m) and carrying the endpoints of the connection it crossed.
func checkOneEventEach(t *testing.T, rec *recordingTap, a, b Conn, msgs []wire.Message, wantCodec bool) {
	t.Helper()
	for _, m := range msgs {
		exchange(t, a, b, m)
	}
	sent, recv := rec.byDir(true), rec.byDir(false)
	if len(sent) != len(msgs) || len(recv) != len(msgs) {
		t.Fatalf("got %d sent / %d recv events, want %d each", len(sent), len(recv), len(msgs))
	}
	for i, m := range msgs {
		enc, err := wire.AppendEncode(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		want := wire.Size(m)
		if len(enc) != want {
			t.Fatalf("%s: wire.Size = %d, encoded length %d", m.Kind(), want, len(enc))
		}
		for _, f := range []Frame{sent[i], recv[i]} {
			if f.Size != want {
				t.Errorf("%s sent=%v: size %d, want %d", m.Kind(), f.Sent, f.Size, want)
			}
			if f.Msg.Kind() != m.Kind() {
				t.Errorf("event %d sent=%v: kind %v, want %v", i, f.Sent, f.Msg.Kind(), m.Kind())
			}
			if f.Codec < 0 || (!wantCodec && f.Codec != 0) {
				t.Errorf("%s sent=%v: codec time %v", m.Kind(), f.Sent, f.Codec)
			}
		}
		if sent[i].Local != a.LocalAddr() || sent[i].Remote != a.RemoteAddr() {
			t.Errorf("sent event endpoints %s->%s, want the sender's %s->%s",
				sent[i].Local, sent[i].Remote, a.LocalAddr(), a.RemoteAddr())
		}
		if recv[i].Local != b.LocalAddr() || recv[i].Remote != b.RemoteAddr() {
			t.Errorf("recv event endpoints %s->%s, want the receiver's %s->%s",
				recv[i].Local, recv[i].Remote, b.LocalAddr(), b.RemoteAddr())
		}
	}
	if rec.conns != 2 {
		t.Errorf("TapConn called %d times, want once per connection end (2)", rec.conns)
	}
}

func TestAccountMemorySizes(t *testing.T) {
	rec := &recordingTap{}
	cli, srv, cleanup := pair(t, tappedMemory(rec), "srv:1")
	defer cleanup()
	checkOneEventEach(t, rec, cli, srv, []wire.Message{
		wire.Hello{Client: "client-1"},
		wire.ReqObjLease{Seq: 1, Object: "o", Version: 2},
	}, false) // nothing is serialized: no codec time
}

func TestAccountTCPTimesCodec(t *testing.T) {
	rec := &recordingTap{}
	cli, srv, cleanup := pair(t, TCP{Taps: []Tap{rec}}, "127.0.0.1:0")
	defer cleanup()
	checkOneEventEach(t, rec, cli, srv, []wire.Message{
		wire.WriteReq{Seq: 7, Object: "obj", Data: make([]byte, 1024)},
		wire.Invalidate{Objects: []core.ObjectID{"obj"}},
	}, true)
}

// TestObserveNetworkCountsBothDirections: a connection delivers each frame
// to every sink in its list, once, whichever way the frame travels.
func TestObserveNetworkCountsBothDirections(t *testing.T) {
	first, second := &recordingTap{}, &recordingTap{}
	cli, srv, cleanup := pair(t, tappedMemory(first, second), "srv")
	defer cleanup()

	exchange(t, cli, srv, wire.Hello{Client: "c1"})
	exchange(t, cli, srv, wire.ReqObjLease{Seq: 1, Object: "o1"})
	exchange(t, srv, cli, wire.Invalidate{Objects: []core.ObjectID{"o1"}})

	for _, rec := range []*recordingTap{first, second} {
		for _, sent := range []bool{true, false} {
			var kinds []wire.Kind
			for _, f := range rec.byDir(sent) {
				kinds = append(kinds, f.Msg.Kind())
			}
			want := []wire.Kind{wire.KindHello, wire.KindReqObjLease, wire.KindInvalidate}
			if len(kinds) != len(want) || kinds[0] != want[0] || kinds[1] != want[1] || kinds[2] != want[2] {
				t.Errorf("sent=%v: kinds %v, want %v", sent, kinds, want)
			}
		}
	}
}

// untapped reports whether both ends of a pair run the nil-check path.
func untapped(t *testing.T, n Network, addr string) bool {
	t.Helper()
	cli, srv, cleanup := pair(t, n, addr)
	defer cleanup()
	exchange(t, cli, srv, wire.Hello{Client: "c"})
	switch c := cli.(type) {
	case *tcpConn:
		return c.tap == nil && srv.(*tcpConn).tap == nil
	case *memConn:
		return c.tap == nil && srv.(*memConn).tap == nil
	}
	t.Fatalf("unexpected conn type %T", cli)
	return false
}

func TestAccountNetworkNilPassthrough(t *testing.T) {
	if !untapped(t, TCP{}, "127.0.0.1:0") || !untapped(t, NewMemory(), "srv:1") {
		t.Error("a network without taps built a tapped connection")
	}
}

func TestObserveNetworkNilObserverIsIdentity(t *testing.T) {
	if !untapped(t, TCP{Taps: []Tap{nil}}, "127.0.0.1:0") || !untapped(t, tappedMemory(nil, nil), "srv:1") {
		t.Error("nil taps built a tapped connection")
	}
}

func TestAccountConnNilAccountantUnwrapped(t *testing.T) {
	if !untapped(t, TCP{Taps: []Tap{decliningTap{}}}, "127.0.0.1:0") || !untapped(t, tappedMemory(decliningTap{}), "srv:1") {
		t.Error("a tap that declined the connection left it tapped")
	}
}

// TestObserveNetworkForwardsDialFrom: a tapped Memory is still the Memory —
// identity-preserving dials and partitions by host name work unchanged.
func TestObserveNetworkForwardsDialFrom(t *testing.T) {
	rec := &recordingTap{}
	mem := tappedMemory(rec)
	var n Network = mem
	fd, ok := n.(FromDialer)
	if !ok {
		t.Fatal("tapped Memory network must still expose DialFrom")
	}

	l, err := n.Listen("srv")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()

	mem.Partition("alice", "srv")
	if _, err := fd.DialFrom("alice", "srv"); err == nil {
		t.Fatal("DialFrom through a partition should fail")
	}

	cli, err := fd.DialFrom("bob", "srv")
	if err != nil {
		t.Fatalf("DialFrom: %v", err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	exchange(t, cli, srv, wire.Hello{Client: "bob"})
	sent := rec.byDir(true)
	if len(sent) != 1 || len(rec.byDir(false)) != 1 {
		t.Fatalf("tap missed DialFrom traffic: %d sent, %d recv", len(sent), len(rec.byDir(false)))
	}
	if Host(sent[0].Local) != "bob" || sent[0].Remote != "srv" {
		t.Errorf("sent event endpoints %s->%s, want bob:*->srv", sent[0].Local, sent[0].Remote)
	}
}
