package transport

import (
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

type frameEvent struct {
	local, remote string
	sent          bool
	kind          wire.Kind
	size          int
	codec         time.Duration
}

// recordingAccounter captures every Frame callback for assertions.
type recordingAccounter struct {
	mu     sync.Mutex
	events []frameEvent
	mint   int // AccountConn calls
}

func (r *recordingAccounter) AccountConn(local, remote string) FrameAccountant {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mint++
	return &recordingFA{r: r, local: local, remote: remote}
}

func (r *recordingAccounter) byDir(sent bool) []frameEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []frameEvent
	for _, e := range r.events {
		if e.sent == sent {
			out = append(out, e)
		}
	}
	return out
}

type recordingFA struct {
	r             *recordingAccounter
	local, remote string
}

func (f *recordingFA) Frame(sent bool, m wire.Message, size int, codec time.Duration) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.events = append(f.r.events, frameEvent{f.local, f.remote, sent, m.Kind(), size, codec})
}

func TestAccountNetworkNilPassthrough(t *testing.T) {
	n := NewMemory()
	if got := AccountNetwork(n, nil); got != Network(n) {
		t.Errorf("AccountNetwork(n, nil) wrapped the network")
	}
}

func TestAccountMemorySizes(t *testing.T) {
	rec := &recordingAccounter{}
	netw := AccountNetwork(NewMemory(), rec)

	l, err := netw.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := netw.(FromDialer).DialFrom("client-1", "srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	msgs := []wire.Message{
		wire.Hello{Client: "client-1"},
		wire.ReqObjLease{Seq: 1, Object: "o", Version: 2},
	}
	for _, m := range msgs {
		if err := cl.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	sentEv, recvEv := rec.byDir(true), rec.byDir(false)
	if len(sentEv) != len(msgs) || len(recvEv) != len(msgs) {
		t.Fatalf("got %d sent / %d recv events, want %d each", len(sentEv), len(recvEv), len(msgs))
	}
	for i, m := range msgs {
		want := wire.Size(m)
		if sentEv[i].size != want || recvEv[i].size != want {
			t.Errorf("%s: sizes sent=%d recv=%d, want %d", m.Kind(), sentEv[i].size, recvEv[i].size, want)
		}
		if sentEv[i].codec != 0 || recvEv[i].codec != 0 {
			t.Errorf("%s: memory transport charged codec time sent=%v recv=%v, want 0", m.Kind(), sentEv[i].codec, recvEv[i].codec)
		}
		if sentEv[i].kind != m.Kind() || recvEv[i].kind != m.Kind() {
			t.Errorf("kind mismatch: sent=%v recv=%v want %v", sentEv[i].kind, recvEv[i].kind, m.Kind())
		}
	}
	// Both endpoints of the dial plus the accepted side were minted.
	if rec.mint != 2 {
		t.Errorf("AccountConn minted %d accountants, want 2", rec.mint)
	}
}

func TestAccountTCPTimesCodec(t *testing.T) {
	rec := &recordingAccounter{}
	netw := AccountNetwork(TCP{}, rec)

	l, err := netw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cl, err := netw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	srv := <-accepted
	defer srv.Close()

	m := wire.WriteReq{Seq: 7, Object: "obj", Data: make([]byte, 1024)}
	if err := cl.Send(m); err != nil {
		t.Fatal(err)
	}
	got, err := srv.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != wire.KindWriteReq {
		t.Fatalf("received %v, want WriteReq", got.Kind())
	}

	enc, _ := wire.AppendEncode(nil, m)
	sentEv, recvEv := rec.byDir(true), rec.byDir(false)
	if len(sentEv) != 1 || len(recvEv) != 1 {
		t.Fatalf("got %d sent / %d recv events, want 1 each", len(sentEv), len(recvEv))
	}
	if sentEv[0].size != len(enc) || recvEv[0].size != len(enc) {
		t.Errorf("sizes sent=%d recv=%d, want encoded length %d", sentEv[0].size, recvEv[0].size, len(enc))
	}
	// On TCP the codec durations are measured around Encode/Decode proper;
	// they are real (possibly sub-microsecond but clocked) intervals.
	if sentEv[0].codec < 0 || recvEv[0].codec < 0 {
		t.Errorf("negative codec durations: sent=%v recv=%v", sentEv[0].codec, recvEv[0].codec)
	}
}

// nilFAAccounter declines to account some connections.
type nilFAAccounter struct{}

func (nilFAAccounter) AccountConn(local, remote string) FrameAccountant { return nil }

func TestAccountConnNilAccountantUnwrapped(t *testing.T) {
	netw := AccountNetwork(NewMemory(), nilFAAccounter{})
	l, err := netw.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			c.Recv()
		}
	}()
	cl, err := netw.Dial("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, wrapped := cl.(*accountedConn); wrapped {
		t.Error("conn wrapped despite nil FrameAccountant")
	}
	if err := cl.Send(wire.Hello{Client: "c"}); err != nil {
		t.Fatal(err)
	}
}
