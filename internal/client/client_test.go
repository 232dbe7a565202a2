package client

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeServer speaks the wire protocol by table-driven scripting: each
// inbound message kind maps to a handler that may reply. It runs over the
// in-memory transport.
type fakeServer struct {
	t    *testing.T
	net  *transport.Memory
	l    transport.Listener
	conn transport.Conn

	mu       sync.Mutex
	received []wire.Message
	handlers map[wire.Kind]func(m wire.Message) []wire.Message
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	net := transport.NewMemory()
	l, err := net.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{
		t: t, net: net, l: l,
		handlers: make(map[wire.Kind]func(m wire.Message) []wire.Message),
	}
	go fs.serve()
	t.Cleanup(func() {
		l.Close()
		fs.mu.Lock()
		conn := fs.conn
		fs.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
	})
	return fs
}

func (fs *fakeServer) serve() {
	conn, err := fs.l.Accept()
	if err != nil {
		return
	}
	fs.mu.Lock()
	fs.conn = conn
	fs.mu.Unlock()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.received = append(fs.received, m)
		h := fs.handlers[m.Kind()]
		fs.mu.Unlock()
		if h != nil {
			for _, reply := range h(m) {
				if err := conn.Send(reply); err != nil {
					return
				}
			}
		}
	}
}

// on registers a scripted reply.
func (fs *fakeServer) on(k wire.Kind, h func(m wire.Message) []wire.Message) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.handlers[k] = h
}

// push sends a server-initiated message.
func (fs *fakeServer) push(m wire.Message) {
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()
	if conn == nil {
		fs.t.Fatal("no connection yet")
	}
	if err := conn.Send(m); err != nil {
		fs.t.Errorf("push: %v", err)
	}
}

// seen returns received messages of kind k.
func (fs *fakeServer) seen(k wire.Kind) []wire.Message {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []wire.Message
	for _, m := range fs.received {
		if m.Kind() == k {
			out = append(out, m)
		}
	}
	return out
}

// waitFor polls until at least n messages of kind k arrived.
func (fs *fakeServer) waitFor(k wire.Kind, n int) []wire.Message {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := fs.seen(k); len(got) >= n {
			return got
		}
		time.Sleep(time.Millisecond)
	}
	fs.t.Fatalf("never saw %d %s messages", n, k)
	return nil
}

// scriptedGrants wires up standard lease-granting behavior.
func (fs *fakeServer) scriptedGrants(objData string) {
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqVolLease)
		return []wire.Message{wire.VolLease{
			Seq: req.Seq, Volume: req.Volume,
			Expire: time.Now().Add(10 * time.Second), Epoch: 0,
		}}
	})
	fs.on(wire.KindReqObjLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqObjLease)
		rep := wire.ObjLease{
			Seq: req.Seq, Object: req.Object, Version: 1,
			Expire: time.Now().Add(time.Minute),
		}
		if req.Version != 1 {
			rep.HasData = true
			rep.Data = []byte(objData)
		}
		return []wire.Message{rep}
	})
}

func dialClient(t *testing.T, fs *fakeServer, mutate func(*Config)) *Client {
	t.Helper()
	cfg := Config{ID: "c1", Timeout: 2 * time.Second, Skew: time.Millisecond}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := Dial(fs.net, "srv:1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialRequiresID(t *testing.T) {
	fs := newFakeServer(t)
	if _, err := Dial(fs.net, "srv:1", Config{}); err == nil {
		t.Fatal("Dial without ID succeeded")
	}
}

func TestDialSendsHello(t *testing.T) {
	fs := newFakeServer(t)
	dialClient(t, fs, nil)
	msgs := fs.waitFor(wire.KindHello, 1)
	if h := msgs[0].(wire.Hello); h.Client != "c1" {
		t.Errorf("hello = %+v", h)
	}
}

func TestReadAcquiresBothLeases(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("payload")
	c := dialClient(t, fs, nil)
	data, err := c.Read("vol", "obj")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(data) != "payload" {
		t.Errorf("data = %q", data)
	}
	fs.waitFor(wire.KindReqVolLease, 1)
	fs.waitFor(wire.KindReqObjLease, 1)
	// First contact carries NoEpoch and NoVersion.
	vreq := fs.seen(wire.KindReqVolLease)[0].(wire.ReqVolLease)
	if vreq.Epoch != core.NoEpoch {
		t.Errorf("first epoch = %d, want NoEpoch", vreq.Epoch)
	}
	oreq := fs.seen(wire.KindReqObjLease)[0].(wire.ReqObjLease)
	if oreq.Version != core.NoVersion {
		t.Errorf("first version = %d, want NoVersion", oreq.Version)
	}
	// Cached read: no new requests.
	before := len(fs.seen(wire.KindReqObjLease))
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	if after := len(fs.seen(wire.KindReqObjLease)); after != before {
		t.Errorf("cached read sent %d extra lease requests", after-before)
	}
}

func TestReadTimesOutWhenServerSilent(t *testing.T) {
	fs := newFakeServer(t) // no handlers: server swallows requests
	c := dialClient(t, fs, func(cfg *Config) { cfg.Timeout = 50 * time.Millisecond })
	_, err := c.Read("vol", "obj")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestServerErrorSurfaces(t *testing.T) {
	fs := newFakeServer(t)
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		return []wire.Message{wire.Error{
			Seq: m.Sequence(), Code: wire.ErrCodeNoSuchVolume, Msg: "nope",
		}}
	})
	c := dialClient(t, fs, nil)
	_, err := c.Read("ghost", "obj")
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.ErrCodeNoSuchVolume {
		t.Fatalf("err = %v, want ServerError{NoSuchVolume}", err)
	}
}

func TestInvalidatePushDropsCopyAndAcks(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, nil)
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	fs.push(wire.Invalidate{Objects: []core.ObjectID{"obj"}})
	acks := fs.waitFor(wire.KindAckInvalidate, 1)
	ack := acks[0].(wire.AckInvalidate)
	if ack.Seq != 0 || len(ack.Objects) != 1 || ack.Objects[0] != "obj" {
		t.Errorf("ack = %+v", ack)
	}
	if _, ok := c.Peek("obj"); ok {
		t.Error("copy survived invalidation")
	}
	if _, _, _, _, ok := c.Cached("obj"); ok {
		t.Error("version survived invalidation")
	}
}

// TestReadDiscardsOvertakenGrant: the server answers the first object-lease
// request with an invalidation of the object and then the grant, as happens
// when a write's invalidation overtakes a grant in flight. The reader
// goroutine handles the push before it routes the reply, so the grant must be
// dropped and the read served from a second request.
func TestReadDiscardsOvertakenGrant(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("") // for the volume lease; object grants are scripted here
	requests := 0         // touched by the fake server's one goroutine only
	fs.on(wire.KindReqObjLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqObjLease)
		requests++
		grant := wire.ObjLease{Seq: req.Seq, Object: req.Object, Version: core.Version(requests),
			Expire: time.Now().Add(time.Minute), HasData: true, Data: []byte("fresh")}
		if requests > 1 {
			return []wire.Message{grant}
		}
		grant.Data = []byte("stale")
		return []wire.Message{wire.Invalidate{Objects: []core.ObjectID{req.Object}}, grant}
	})
	c := dialClient(t, fs, nil)
	data, err := c.Read("vol", "obj")
	if err != nil || string(data) != "fresh" {
		t.Fatalf("Read = %q, %v; want \"fresh\"", data, err)
	}
	if n := len(fs.seen(wire.KindReqObjLease)); n != 2 {
		t.Errorf("%d object-lease requests, want 2 (the overtaken grant dropped, then one more)", n)
	}
}

func TestInvalidateUnknownObjectStillAcks(t *testing.T) {
	fs := newFakeServer(t)
	dialClient(t, fs, nil)
	fs.waitFor(wire.KindHello, 1)
	fs.push(wire.Invalidate{Objects: []core.ObjectID{"never-seen"}})
	fs.waitFor(wire.KindAckInvalidate, 1)
}

func TestRenewVolumeHandlesPendingInvalidations(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, nil)
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	// Rescript the volume path: reply with an InvalRenew demanding an ack,
	// then grant.
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqVolLease)
		return []wire.Message{wire.InvalRenew{
			Seq: req.Seq, Volume: req.Volume,
			Invalidate: []core.ObjectID{"obj"},
		}}
	})
	fs.on(wire.KindAckInvalidate, func(m wire.Message) []wire.Message {
		ack := m.(wire.AckInvalidate)
		if ack.Seq == 0 {
			return nil
		}
		return []wire.Message{wire.VolLease{
			Seq: ack.Seq, Volume: ack.Volume,
			Expire: time.Now().Add(10 * time.Second), Epoch: 0,
		}}
	})
	if err := c.RenewVolume("vol2"); err != nil {
		t.Fatalf("RenewVolume: %v", err)
	}
	if !c.HasVolumeLease("vol2") {
		t.Error("no volume lease after pending-invalidation renewal")
	}
}

func TestRenewVolumeHandlesReconnection(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, nil)
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	// Script the reconnection protocol for a new volume id.
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqVolLease)
		return []wire.Message{wire.MustRenewAll{Seq: req.Seq, Volume: req.Volume, Epoch: 7}}
	})
	fs.on(wire.KindRenewObjLeases, func(m wire.Message) []wire.Message {
		req := m.(wire.RenewObjLeases)
		return []wire.Message{wire.InvalRenew{Seq: req.Seq, Volume: req.Volume}}
	})
	fs.on(wire.KindAckInvalidate, func(m wire.Message) []wire.Message {
		ack := m.(wire.AckInvalidate)
		if ack.Seq == 0 {
			return nil
		}
		return []wire.Message{wire.VolLease{
			Seq: ack.Seq, Volume: ack.Volume,
			Expire: time.Now().Add(10 * time.Second), Epoch: 7,
		}}
	})
	if err := c.RenewVolume("vol3"); err != nil {
		t.Fatalf("RenewVolume: %v", err)
	}
	msgs := fs.waitFor(wire.KindRenewObjLeases, 1)
	renew := msgs[0].(wire.RenewObjLeases)
	if renew.Volume != "vol3" {
		t.Errorf("RenewObjLeases for %q", renew.Volume)
	}
}

func TestWriteRPC(t *testing.T) {
	fs := newFakeServer(t)
	fs.on(wire.KindWriteReq, func(m wire.Message) []wire.Message {
		req := m.(wire.WriteReq)
		return []wire.Message{wire.WriteReply{
			Seq: req.Seq, Object: req.Object, Version: 5, Waited: 250 * time.Millisecond,
		}}
	})
	c := dialClient(t, fs, nil)
	version, waited, err := c.Write("obj", []byte("new"))
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if version != 5 || waited != 250*time.Millisecond {
		t.Errorf("Write = v%d %v", version, waited)
	}
}

func TestConnectionLossFailsPendingRPC(t *testing.T) {
	fs := newFakeServer(t)
	c := dialClient(t, fs, func(cfg *Config) { cfg.Timeout = 5 * time.Second })
	fs.waitFor(wire.KindHello, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Read("vol", "obj")
		errCh <- err
	}()
	fs.waitFor(wire.KindReqVolLease, 1)
	fs.conn.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read succeeded over dead connection")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("read never failed after connection loss")
	}
	// Subsequent calls fail fast with the sticky error.
	if _, err := c.Read("vol", "obj"); err == nil {
		t.Fatal("read succeeded after connection loss")
	}
}

func TestPeekAndVersion(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("hello")
	c := dialClient(t, fs, nil)
	if _, ok := c.Peek("obj"); ok {
		t.Error("Peek found data before any read")
	}
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	data, ok := c.Peek("obj")
	if !ok || string(data) != "hello" {
		t.Errorf("Peek = %q %v", data, ok)
	}
	_, v, _, _, ok := c.Cached("obj")
	if !ok || v != 1 {
		t.Errorf("Cached version = %d %v", v, ok)
	}
	if c.ID() != "c1" {
		t.Errorf("ID = %q", c.ID())
	}
}

func TestSkewRefusesNearlyExpiredLease(t *testing.T) {
	fs := newFakeServer(t)
	// Grant leases that expire almost immediately; with a large skew the
	// client must treat them as invalid and re-request every time.
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqVolLease)
		return []wire.Message{wire.VolLease{
			Seq: req.Seq, Volume: req.Volume,
			Expire: time.Now().Add(20 * time.Millisecond),
		}}
	})
	fs.on(wire.KindReqObjLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqObjLease)
		return []wire.Message{wire.ObjLease{
			Seq: req.Seq, Object: req.Object, Version: 1,
			Expire:  time.Now().Add(20 * time.Millisecond),
			HasData: true, Data: []byte("x"),
		}}
	})
	c := dialClient(t, fs, func(cfg *Config) { cfg.Skew = 500 * time.Millisecond })
	if _, err := c.Read("vol", "obj"); err == nil {
		t.Fatal("read succeeded with leases inside the skew margin")
	}
}

func TestConcurrentReadsShareRenewals(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("data")
	c := dialClient(t, fs, nil)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Read("vol", "obj"); err != nil {
				t.Errorf("Read: %v", err)
			}
		}()
	}
	wg.Wait()
	// The renewMu serialization means at most a handful of volume
	// renewals, not 16.
	if n := len(fs.seen(wire.KindReqVolLease)); n > 4 {
		t.Errorf("%d volume renewals for 16 concurrent reads", n)
	}
}

func TestServerErrorString(t *testing.T) {
	e := &ServerError{Code: wire.ErrCodeNoSuchVolume, Msg: "gone"}
	if !strings.Contains(e.Error(), "gone") {
		t.Errorf("Error() = %q", e.Error())
	}
}

func TestLeaseInfoAccessors(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("payload")
	c := dialClient(t, fs, nil)
	if _, _, _, _, ok := c.Cached("obj"); ok {
		t.Error("Cached before read reported a lease")
	}
	if _, _, _, ok := c.VolumeLeaseInfo("vol"); ok {
		t.Error("VolumeLeaseInfo before read reported a lease")
	}
	before := time.Now()
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	// trusted is what is left of the term once Skew is off, so it is
	// positive and short of the whole term as it stood before the grant.
	_, v, expire, trusted, ok := c.Cached("obj")
	if !ok || v != 1 || !expire.After(time.Now()) || trusted <= 0 || trusted >= expire.Sub(before) {
		t.Errorf("Cached = %d %v %v %v", v, expire, trusted, ok)
	}
	vexp, epoch, trusted, ok := c.VolumeLeaseInfo("vol")
	if !ok || epoch != 0 || !vexp.After(time.Now()) || trusted <= 0 || trusted >= vexp.Sub(before) {
		t.Errorf("VolumeLeaseInfo = %v %d %v %v", vexp, epoch, trusted, ok)
	}
}

func TestOnInvalidateHookRunsBeforeAck(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	hookRan := make(chan []core.ObjectID, 1)
	c := dialClient(t, fs, func(cfg *Config) {
		cfg.OnInvalidate = func(objs []core.ObjectID, _ wire.TraceContext) {
			// The ack must not have been sent yet.
			if n := len(fs.seen(wire.KindAckInvalidate)); n != 0 {
				t.Errorf("ack sent before hook (%d acks)", n)
			}
			hookRan <- objs
		}
	})
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	fs.push(wire.Invalidate{Objects: []core.ObjectID{"obj"}})
	select {
	case objs := <-hookRan:
		if len(objs) != 1 || objs[0] != "obj" {
			t.Errorf("hook objects = %v", objs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hook never ran")
	}
	fs.waitFor(wire.KindAckInvalidate, 1)
}

// TestBlockedHookDoesNotStallReplies: while the OnInvalidate hook blocks (a
// proxy waiting out its downstream round), the connection's reader keeps
// delivering — a read's reply arrives — and the ack still waits for the hook.
func TestBlockedHookDoesNotStallReplies(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	entered, release := make(chan struct{}, 1), make(chan struct{})
	c := dialClient(t, fs, func(cfg *Config) {
		cfg.OnInvalidate = func([]core.ObjectID, wire.TraceContext) {
			entered <- struct{}{}
			<-release
		}
	})
	var once sync.Once
	free := func() { once.Do(func() { close(release) }) }
	t.Cleanup(free) // before Close, which waits for the hook
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	fs.push(wire.Invalidate{Objects: []core.ObjectID{"obj"}})
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("hook never ran")
	}

	read := make(chan error, 1)
	go func() {
		_, err := c.Read("vol", "other")
		read <- err
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatalf("read while the hook blocks: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a read's reply waited behind the blocked hook")
	}
	if n := len(fs.seen(wire.KindAckInvalidate)); n != 0 {
		t.Fatalf("%d acks sent while the hook still blocks", n)
	}
	free()
	fs.waitFor(wire.KindAckInvalidate, 1)
}

func TestApplyInvalRenewRenewsMatchingVersion(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, nil)
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	// Renewal conversation that renews the held object at its version and
	// invalidates an unknown one.
	newExpire := time.Now().Add(time.Hour)
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		return []wire.Message{wire.InvalRenew{
			Seq: m.Sequence(), Volume: "vol2",
			Invalidate: []core.ObjectID{"never-had"},
			Renew:      []wire.LeaseMeta{{Object: "obj", Version: 1, Expire: newExpire}},
		}}
	})
	fs.on(wire.KindAckInvalidate, func(m wire.Message) []wire.Message {
		ack := m.(wire.AckInvalidate)
		if ack.Seq == 0 {
			return nil
		}
		return []wire.Message{wire.VolLease{Seq: ack.Seq, Volume: ack.Volume,
			Expire: time.Now().Add(10 * time.Second)}}
	})
	if err := c.RenewVolume("vol2"); err != nil {
		t.Fatal(err)
	}
	_, _, expire, _, ok := c.Cached("obj")
	if !ok {
		t.Fatal("lease lost after renew vector")
	}
	if !expire.Equal(newExpire) {
		t.Errorf("lease expire = %v, want %v", expire, newExpire)
	}
}

func TestApplyInvalRenewVersionMismatchDropsCopy(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, nil)
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	fs.on(wire.KindReqVolLease, func(m wire.Message) []wire.Message {
		return []wire.Message{wire.InvalRenew{
			Seq: m.Sequence(), Volume: "vol3",
			Renew: []wire.LeaseMeta{{Object: "obj", Version: 99, Expire: time.Now().Add(time.Hour)}},
		}}
	})
	fs.on(wire.KindAckInvalidate, func(m wire.Message) []wire.Message {
		ack := m.(wire.AckInvalidate)
		if ack.Seq == 0 {
			return nil
		}
		return []wire.Message{wire.VolLease{Seq: ack.Seq, Volume: ack.Volume,
			Expire: time.Now().Add(10 * time.Second)}}
	})
	if err := c.RenewVolume("vol3"); err != nil {
		t.Fatal(err)
	}
	// Our copy was at version 1; a renewal at version 99 cannot be trusted.
	if _, ok := c.Peek("obj"); ok {
		t.Error("copy survived a version-mismatched renewal")
	}
}

func TestRedialReconnectsToFakeServer(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	c := dialClient(t, fs, func(cfg *Config) { cfg.Redial = true })
	if _, err := c.Read("vol", "obj"); err != nil {
		t.Fatal(err)
	}
	// Kill the connection; the client must re-dial and re-Hello. The fake
	// server accepts one connection per serve(); restart its accept loop.
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()
	go fs.serve() // accept the redial
	conn.Close()
	fs.waitFor(wire.KindHello, 2)
	// The client keeps working on the new connection (cache intact).
	if data, ok := c.Peek("obj"); !ok || string(data) != "v1" {
		t.Errorf("cache lost across redial: %q %v", data, ok)
	}
}

// TestLateReplyNotDeliveredToRecycledCall: the server answers the first
// object-lease request only after the client's Timeout, right before its
// answer to the second. The second read reuses the first's call under a new
// sequence number, so the late reply must be dropped, not taken for the
// second grant.
func TestLateReplyNotDeliveredToRecycledCall(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("") // for the volume lease; object grants are scripted here
	var first uint64      // touched by the fake server's one goroutine only
	fs.on(wire.KindReqObjLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqObjLease)
		if first == 0 {
			first = req.Seq
			return nil // answered late, with the next request's answer
		}
		grant := func(seq uint64, v core.Version, data string) wire.Message {
			return wire.ObjLease{Seq: seq, Object: req.Object, Version: v,
				Expire: time.Now().Add(time.Minute), HasData: true, Data: []byte(data)}
		}
		return []wire.Message{grant(first, 1, "late"), grant(req.Seq, 2, "fresh")}
	})
	var (
		logMu sync.Mutex
		logs  []string
	)
	c := dialClient(t, fs, func(cfg *Config) {
		cfg.Timeout = 250 * time.Millisecond
		cfg.Logf = func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		}
	})
	if _, err := c.Read("vol", "obj"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("first read: %v, want ErrTimeout", err)
	}
	c.mu.Lock()
	recycled := slices.Clone(c.free)
	c.mu.Unlock()
	if len(recycled) != 1 {
		t.Fatalf("%d calls on the free list after the timed-out read, want 1", len(recycled))
	}

	data, err := c.Read("vol", "obj")
	if err != nil || string(data) != "fresh" {
		t.Fatalf("second read = %q, %v; want \"fresh\"", data, err)
	}
	c.mu.Lock()
	reused := slices.Equal(c.free, recycled)
	c.mu.Unlock()
	if !reused {
		t.Error("the second read did not reuse the timed-out read's call")
	}
	logMu.Lock()
	defer logMu.Unlock()
	if !slices.ContainsFunc(logs, func(l string) bool {
		return strings.Contains(l, "dropping reply for seq") && strings.Contains(l, "ObjLease")
	}) {
		t.Errorf("the late reply was not dropped; log: %q", logs)
	}
}

// TestAbortedCallNotRecycled: a redial aborts the call in flight, closing its
// channel, so that call must stay off the free list; the next RPC, on the new
// connection, succeeds on a call of its own.
func TestAbortedCallNotRecycled(t *testing.T) {
	fs := newFakeServer(t)
	fs.scriptedGrants("v1")
	var answer atomic.Bool
	fs.on(wire.KindReqObjLease, func(m wire.Message) []wire.Message {
		req := m.(wire.ReqObjLease)
		if !answer.Load() {
			return nil // left in flight for the redial to abort
		}
		return []wire.Message{wire.ObjLease{Seq: req.Seq, Object: req.Object, Version: 1,
			Expire: time.Now().Add(time.Minute), HasData: true, Data: []byte("v1")}}
	})
	c := dialClient(t, fs, func(cfg *Config) { cfg.Redial = true })
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Read("vol", "obj")
		errCh <- err
	}()
	fs.waitFor(wire.KindReqObjLease, 1)
	c.mu.Lock()
	old := c.conn
	var aborted *call
	for _, cl := range c.rpcs {
		aborted = cl
	}
	c.mu.Unlock()
	if aborted == nil {
		t.Fatal("no call in flight")
	}

	answer.Store(true)
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()
	go fs.serve() // accept the redial
	conn.Close()
	if err := <-errCh; !errors.Is(err, ErrRetry) {
		t.Fatalf("read in flight across the redial: %v, want ErrRetry", err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		redialed := c.conn != old
		c.mu.Unlock()
		if redialed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the client never redialed")
		}
	}

	data, err := c.Read("vol", "obj")
	if err != nil || string(data) != "v1" {
		t.Fatalf("read on the new connection = %q, %v", data, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if slices.Contains(c.free, aborted) {
		t.Error("the aborted call is back on the free list")
	}
}
