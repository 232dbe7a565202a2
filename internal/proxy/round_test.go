package proxy_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

// invalTapNet wraps a node's network so that every Invalidate the node
// sends on an accepted connection is counted and stalls for delay before
// delivery. Connections the node dials (a proxy's upstream side) are
// untouched.
type invalTapNet struct {
	*transport.Memory
	delay   time.Duration
	frames  atomic.Int64 // Invalidate messages sent
	objects atomic.Int64 // object ids they carried
}

func (n *invalTapNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.Memory.Listen(addr)
	if err != nil {
		return nil, err
	}
	return invalTapListener{Listener: l, net: n}, nil
}

type invalTapListener struct {
	transport.Listener
	net *invalTapNet
}

func (l invalTapListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return invalTapConn{Conn: c, net: l.net}, nil
}

type invalTapConn struct {
	transport.Conn
	net *invalTapNet
}

func (c invalTapConn) Send(m wire.Message) error {
	if inv, ok := m.(wire.Invalidate); ok {
		c.net.frames.Add(1)
		c.net.objects.Add(int64(len(inv.Objects)))
		time.Sleep(c.net.delay)
	}
	return c.Conn.Send(m)
}

// waitingDump polls the proxy's state until its invalidation round is
// waiting on at least one acknowledgment, and returns that dump.
func waitingDump(t *testing.T, px *proxy.Proxy) state.Dump {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if d := px.StateSnapshot(); len(d.Server.Volumes[0].PendingAcks) > 0 {
			return d
		}
	}
	t.Fatal("proxy never showed a pending invalidation ack")
	return state.Dump{}
}

// TestProxyWriteDeadlineNotExtendedBySlowFanout is the server's
// TestWriteDeadlineNotExtendedBySlowFanout one level down: with a
// proxy-to-leaf link slower than the leaf's whole sub-lease bound, the
// origin's write must still return once that bound passes, with the leaf
// waited out. The forked proxy round sent inline and then armed its timer
// from a clock reading taken before the sends, stretching the origin's
// write to sendDelay + bound.
func TestProxyWriteDeadlineNotExtendedBySlowFanout(t *testing.T) {
	const sendDelay = 1200 * time.Millisecond
	var tap *invalTapNet
	h := buildHierarchy(t, func(cfg *proxy.Config) {
		tap = &invalTapNet{Memory: cfg.Net.(*transport.Memory), delay: sendDelay}
		cfg.Net = tap
		cfg.SubVolumeLease = 400 * time.Millisecond
	})
	c := h.dial(t, "leaf")
	if _, err := c.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}

	begin := time.Now()
	version, waited, err := h.origin.Write("a", []byte("a v2"))
	elapsed := time.Since(begin)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d, want 2", version)
	}
	// The leaf's volume sub-lease (400ms) dominates the bound; stay far
	// below the drifting sendDelay + bound figure.
	if elapsed >= sendDelay {
		t.Errorf("origin write took %v (waited %v); the proxy's deadline drifted past the sub-lease bound (~400ms)", elapsed, waited)
	}
	unreachable := h.px.StateSnapshot().Server.Volumes[0].Unreachable
	if len(unreachable) != 1 || unreachable[0] != "leaf" {
		t.Errorf("proxy unreachable set = %v, want [leaf]", unreachable)
	}
}

// TestProxyBurstCoalescesInvalidations: N origin writes in flight together
// against N objects one leaf caches reach that leaf as fewer than N
// Invalidate messages — the proxy's rounds share the connection's flusher —
// and every object is acknowledged, none waited out. Both hops take a few
// milliseconds per Invalidate, as a loaded socket would, so the rest of the
// burst piles up behind the first message: the origin batches what it sends
// the proxy, and the proxy runs one upstream batch's rounds together.
func TestProxyBurstCoalescesInvalidations(t *testing.T) {
	const (
		n     = 16
		delay = 3 * time.Millisecond
	)
	var tap *invalTapNet
	h := buildHierarchyOn(t, func(net *transport.Memory) transport.Network {
		return &invalTapNet{Memory: net, delay: delay}
	}, func(cfg *proxy.Config) {
		tap = &invalTapNet{Memory: cfg.Net.(*transport.Memory), delay: delay}
		cfg.Net = tap
	})
	c := h.dial(t, "leaf")
	oids := make([]core.ObjectID, n)
	for i := range oids {
		oids[i] = core.ObjectID(fmt.Sprintf("burst-%d", i))
		if err := h.origin.AddObject("vol", oids[i], []byte("v1")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read("vol", oids[i]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for _, oid := range oids {
		wg.Add(1)
		go func(oid core.ObjectID) {
			defer wg.Done()
			if _, _, err := h.origin.Write(oid, []byte("v2")); err != nil {
				t.Errorf("write %s: %v", oid, err)
			}
		}(oid)
	}
	wg.Wait()

	t.Logf("%d objects reached the leaf in %d Invalidate messages", tap.objects.Load(), tap.frames.Load())
	if got := tap.objects.Load(); got != n {
		t.Errorf("proxy invalidated %d objects downstream, want %d", got, n)
	}
	if got := tap.frames.Load(); got >= n {
		t.Errorf("burst of %d writes reached the leaf as %d Invalidate messages; want fewer", n, got)
	}
	if st := h.px.Stats(); st.UnreachableClients != 0 {
		t.Errorf("%d downstream client(s) waited out; every invalidation should have been acked", st.UnreachableClients)
	}
	if _, _, invals := c.Stats(); invals != n {
		t.Errorf("leaf saw %d invalidations, want %d", invals, n)
	}
	for _, oid := range oids {
		if data, err := c.Read("vol", oid); err != nil || string(data) != "v2" {
			t.Errorf("read %s after burst = %q, %v", oid, data, err)
		}
	}
}

// TestProxyRelayDoesNotStallUpstream: while the proxy waits out one
// unreachable leaf for an object, an origin write to another object — held
// only by a reachable leaf — completes at once. The proxy's upstream reader
// used to run each relay inline, so the second Invalidate sat unread until
// the first round ended (~1s, the leaf's volume sub-lease).
func TestProxyRelayDoesNotStallUpstream(t *testing.T) {
	h := buildHierarchy(t, nil)
	slow, fast := h.dial(t, "leaf-slow"), h.dial(t, "leaf-fast")
	if _, err := slow.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fast.Read("vol", "b"); err != nil {
		t.Fatal(err)
	}
	h.net.Partition("leaf-slow", "proxy")
	slowWrite := make(chan error, 1)
	go func() {
		_, _, err := h.origin.Write("a", []byte("a v2"))
		slowWrite <- err
	}()
	waitingDump(t, h.px) // the round for a is waiting on leaf-slow

	begin := time.Now()
	if _, _, err := h.origin.Write("b", []byte("b v2")); err != nil {
		t.Fatalf("Write b: %v", err)
	}
	if elapsed := time.Since(begin); elapsed >= 250*time.Millisecond {
		t.Errorf("write of b took %v behind the round for a; want well under the 1s sub-lease", elapsed)
	}
	if err := <-slowWrite; err != nil {
		t.Fatalf("Write a: %v", err)
	}
	if data, err := fast.Read("vol", "b"); err != nil || string(data) != "b v2" {
		t.Errorf("leaf-fast reads b = %q, %v; want b v2", data, err)
	}
}

// TestProxyGrantWaitsForRoundInFlight: while the proxy's invalidation round
// for an object waits on one leaf's acknowledgment, another leaf's lease
// request for that object is held back — no fresh sub-lease on the old
// version — and is answered with the new version once the round ends.
func TestProxyGrantWaitsForRoundInFlight(t *testing.T) {
	h := buildHierarchy(t, nil)
	slow := h.dial(t, "leaf-slow")
	fast := h.dial(t, "leaf-fast")
	for _, c := range []*client.Client{slow, fast} {
		if _, err := c.Read("vol", "a"); err != nil {
			t.Fatal(err)
		}
	}
	h.net.Partition("leaf-slow", "proxy")
	writeErr := make(chan error, 1)
	go func() {
		_, _, err := h.origin.Write("a", []byte("a v2"))
		writeErr <- err
	}()
	acks := waitingDump(t, h.px).Server.Volumes[0].PendingAcks
	var roundEnds time.Time
	for _, pa := range acks {
		if pa.Client == "leaf-slow" && pa.Object == "a" {
			roundEnds = pa.Deadline
		}
	}
	if roundEnds.IsZero() {
		t.Fatalf("pending acks %+v: none for leaf-slow on a", acks)
	}

	// Once leaf-fast has dropped its copy (its link is fine), its next read
	// is a fresh lease request landing mid-round.
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		if _, _, invals := fast.Stats(); invals > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leaf-fast never saw the invalidation")
		}
	}
	data, err := fast.Read("vol", "a")
	if err != nil {
		t.Fatalf("read during round: %v", err)
	}
	if now := time.Now(); now.Before(roundEnds) {
		t.Errorf("lease request answered %v before the round could end", roundEnds.Sub(now))
	}
	if string(data) != "a v2" {
		t.Errorf("read during round = %q, want a v2", data)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("Write: %v", err)
	}
}
