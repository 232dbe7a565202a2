package proxy_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hierarchy builds origin <- proxy and returns both plus the network and a
// count of the data-bearing grants the origin sent. Origin, proxy, and every
// leaf dialed through dial() share one observer. The reads and writes the
// tests make through read and write go in one history, checked at cleanup:
// no stale or invented read, and no write past the proxy's bound by more
// than slack.
type hierarchy struct {
	net    *transport.Memory
	origin *server.Server
	px     *proxy.Proxy
	sent   *dataTap
	obs    *obs.Observer
	ring   *obs.RingSink
	log    *history.Log
	// bound is the longest an origin write may wait on the proxy's
	// subtree: max(min(t, t_v), MsgTimeout) over the proxy's sub-lease
	// terms, which are capped by the origin's.
	bound time.Duration
}

// writeSlack is the largest ε: how far past the bound a write's wait may
// run, for the extra hop, the deadline timers' lateness and a loaded test
// machine.
const writeSlack = 250 * time.Millisecond

// slack is ε for this hierarchy: writeSlack, or half the bound when that is
// less, so a write that waits twice its bound fails however short the bound.
func (h *hierarchy) slack() time.Duration { return min(writeSlack, h.bound/2) }

// dataTap counts the grants carrying object data that the listener at addr
// sent: a sink on its accepted connections only.
type dataTap struct {
	addr string
	n    atomic.Int64
}

func (d *dataTap) TapConn(local, remote string) transport.Sink {
	if local != d.addr {
		return nil
	}
	return d
}

func (d *dataTap) Observe(f transport.Frame) {
	if g, ok := f.Msg.(wire.ObjLease); ok && f.Sent && g.HasData {
		d.n.Add(1)
	}
}

func buildHierarchy(t *testing.T, mutate func(*proxy.Config)) *hierarchy {
	t.Helper()
	return buildHierarchyOn(t, func(net *transport.Memory) transport.Network { return net }, mutate)
}

// buildHierarchyOn is buildHierarchy with the origin listening on a wrapped
// view of the shared in-memory network.
func buildHierarchyOn(t *testing.T, originNet func(*transport.Memory) transport.Network, mutate func(*proxy.Config)) *hierarchy {
	t.Helper()
	net := transport.NewMemory()
	sent := &dataTap{addr: "origin:1"}
	net.Taps = []transport.Tap{sent}
	ring := obs.NewRingSink(16384)
	observer := &obs.Observer{Tracer: obs.NewTracer(ring)}
	// Registered first so it runs last, after the history check below may
	// have marked the test failed: a failing hierarchy run leaves its event
	// ring behind as a flight dump ($FLIGHT_DUMP_DIR in CI).
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		fallback := filepath.Join(os.TempDir(), "lease-flightdumps")
		if path, err := health.FailureDump("edge-proxy", ring, time.Now(), t.Name(), fallback); err == nil {
			t.Logf("flight dump: %s", path)
		}
	})
	start := time.Now()
	h := &hierarchy{net: net, sent: sent, obs: observer, ring: ring,
		log: history.NewLog(func() time.Duration { return time.Since(start) })}
	t.Cleanup(func() {
		rep := history.Check(h.log)
		for _, a := range rep.Anomalies {
			t.Errorf("history: %v", a)
		}
		if rep.Wait > h.bound+h.slack() {
			t.Errorf("history: %v waited %v, past the bound %v by more than %v", rep.Slowest, rep.Wait, h.bound, h.slack())
		}
	})
	origin, err := server.New(server.Config{
		Name: "origin",
		Addr: "origin:1",
		Net:  originNet(net),
		Table: core.Config{
			ObjectLease: time.Hour,
			VolumeLease: 2 * time.Second,
			Mode:        core.ModeEager,
		},
		MsgTimeout: 50 * time.Millisecond,
		Obs:        observer,
	})
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	t.Cleanup(func() { origin.Close() })
	if err := origin.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"a", "b"} {
		if err := origin.AddObject("vol", core.ObjectID(o), []byte(o+" v1")); err != nil {
			t.Fatal(err)
		}
	}

	cfg := proxy.Config{
		ID:             "edge-proxy",
		Addr:           "proxy:1",
		Net:            net,
		Upstream:       "origin:1",
		Volume:         "vol",
		SubObjectLease: 30 * time.Minute,
		SubVolumeLease: time.Second,
		Skew:           5 * time.Millisecond,
		MsgTimeout:     50 * time.Millisecond,
		Obs:            observer,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h.bound = max(min(cfg.SubObjectLease, cfg.SubVolumeLease), cfg.MsgTimeout)
	px, err := proxy.New(cfg)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { px.Close() })
	h.origin, h.px = origin, px
	return h
}

func (h *hierarchy) dial(t *testing.T, id string) *client.Client {
	t.Helper()
	c, err := client.Dial(h.net, "proxy:1", client.Config{
		ID:      core.ClientID(id),
		Skew:    5 * time.Millisecond,
		Timeout: 5 * time.Second,
		Obs:     h.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// tagOf is a value's tag in the history: the values the tests seed, each
// object's version 1, end in "v1" and are from before the run, tag 0; a
// test's writes of one object carry distinct values.
func tagOf(data []byte) uint64 {
	if bytes.HasSuffix(data, []byte("v1")) {
		return 0
	}
	return history.Tag(data)
}

// writer is what a test writes through: the origin or a leaf.
type writer interface {
	Write(core.ObjectID, []byte) (core.Version, time.Duration, error)
}

// write records w.Write(oid, data) and returns what it returned.
func (h *hierarchy) write(w writer, oid core.ObjectID, data string) (core.Version, time.Duration, error) {
	call := h.log.Now()
	v, waited, err := w.Write(oid, []byte(data))
	h.log.Write(string(oid), tagOf([]byte(data)), call, uint64(v), err == nil)
	return v, waited, err
}

// read records c's read of oid in volume vol, if it returned a value.
func (h *hierarchy) read(c *client.Client, oid core.ObjectID) ([]byte, error) {
	call := h.log.Now()
	data, err := c.Read("vol", oid)
	if err == nil {
		h.log.Read(string(oid), tagOf(data), call)
	}
	return data, err
}

func TestProxyReadThrough(t *testing.T) {
	h := buildHierarchy(t, nil)
	c := h.dial(t, "leaf")
	data, err := h.read(c, "a")
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(data) != "a v1" {
		t.Errorf("read = %q", data)
	}
	// Repeat read: cache hit at the leaf, no proxy traffic at all.
	local0, _, _ := c.Stats()
	if _, err := h.read(c, "a"); err != nil {
		t.Fatal(err)
	}
	local1, _, _ := c.Stats()
	if local1 != local0+1 {
		t.Error("second read not served from leaf cache")
	}
}

func TestProxyAbsorbsDownstreamFetches(t *testing.T) {
	h := buildHierarchy(t, nil)
	c1 := h.dial(t, "leaf-1")
	c2 := h.dial(t, "leaf-2")
	if _, err := h.read(c1, "a"); err != nil {
		t.Fatal(err)
	}
	upstreamData := h.sent.n.Load()
	// The second leaf's fetch is served from the proxy's copy: the origin
	// sees no additional data transfer.
	if _, err := h.read(c2, "a"); err != nil {
		t.Fatal(err)
	}
	if got := h.sent.n.Load(); upstreamData != 1 || got != upstreamData {
		t.Errorf("origin data messages grew %d -> %d; proxy should absorb the fetch", upstreamData, got)
	}
}

func TestProxyWriteInvalidatesWholeSubtree(t *testing.T) {
	h := buildHierarchy(t, nil)
	c1 := h.dial(t, "leaf-1")
	c2 := h.dial(t, "leaf-2")
	for _, c := range []*client.Client{c1, c2} {
		if _, err := h.read(c, "a"); err != nil {
			t.Fatal(err)
		}
	}
	// The origin's write completes only after the proxy has invalidated
	// both leaves and they acked.
	version, waited, err := h.write(h.origin, "a", "a v2")
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d", version)
	}
	if waited > time.Second {
		t.Errorf("write waited %v with responsive subtree", waited)
	}
	for i, c := range []*client.Client{c1, c2} {
		data, err := h.read(c, "a")
		if err != nil {
			t.Fatalf("leaf %d read: %v", i, err)
		}
		if string(data) != "a v2" {
			t.Errorf("leaf %d read = %q, want a v2", i, data)
		}
		_, _, invals := c.Stats()
		if invals == 0 {
			t.Errorf("leaf %d never saw the invalidation", i)
		}
	}
}

// TestProxyRoundJoinsOriginTrace: the proxy's downstream round for an
// origin write is a record in the origin write's trace, parented on the
// origin's send to the proxy, and its own sends to the leaves are parented
// on that round.
func TestProxyRoundJoinsOriginTrace(t *testing.T) {
	h := buildHierarchy(t, nil)
	leaf := h.dial(t, "leaf")
	if _, err := h.read(leaf, "a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.write(h.origin, "a", "a v2"); err != nil {
		t.Fatal(err)
	}
	var origin, toProxy, round, toLeaf []obs.Event
	for deadline := time.Now().Add(5 * time.Second); len(toProxy) == 0 || len(toLeaf) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after 5s: origin write %v, sent to the proxy %v, proxy round %v, sent to the leaf %v",
				origin, toProxy, round, toLeaf)
		}
		origin, toProxy, round, toLeaf = nil, nil, nil, nil
		for _, e := range h.ring.Snapshot() {
			switch {
			case e.Type == obs.EvWrite && e.Node == "origin":
				origin = append(origin, e)
			case e.Type == obs.EvInvalSent && e.Node == "origin":
				toProxy = append(toProxy, e)
			case e.Type == obs.EvWrite && e.Node == "edge-proxy":
				round = append(round, e)
			case e.Type == obs.EvInvalSent && e.Node == "edge-proxy":
				toLeaf = append(toLeaf, e)
			}
		}
	}
	if len(origin) != 1 || len(toProxy) != 1 || len(round) != 1 || len(toLeaf) != 1 {
		t.Fatalf("origin write %v, sent to the proxy %v, proxy round %v, sent to the leaf %v; want one each",
			origin, toProxy, round, toLeaf)
	}
	trace := origin[0].Trace
	for _, link := range []struct {
		name          string
		child, parent obs.Event
	}{
		{"send to the proxy", toProxy[0], origin[0]},
		{"proxy round", round[0], toProxy[0]},
		{"send to the leaf", toLeaf[0], round[0]},
	} {
		if link.child.Trace != trace || link.child.Parent != link.parent.Span {
			t.Errorf("%s = trace %d parent %d, want trace %d parent %d",
				link.name, link.child.Trace, link.child.Parent, trace, link.parent.Span)
		}
	}
}

func TestProxySubLeaseNeverOutlivesUpstream(t *testing.T) {
	h := buildHierarchy(t, nil)
	c := h.dial(t, "leaf")
	if _, err := h.read(c, "a"); err != nil {
		t.Fatal(err)
	}
	// The leaf's volume sub-lease must expire within the proxy's upstream
	// volume lease (2s), even though the proxy would nominally grant 1s —
	// and never beyond 2s from now.
	expire, _, _, ok := c.VolumeLeaseInfo("vol")
	if !ok {
		t.Fatal("leaf has no volume lease")
	}
	if d := time.Until(expire); d > 2*time.Second {
		t.Errorf("leaf volume sub-lease %v ahead; upstream lease is 2s", d)
	}
	// Object sub-lease: nominal 30m, but capped by the origin's 1h object
	// lease — so up to 30m is fine; it must exist and be well in the
	// future.
	_, _, objExpire, _, ok := c.Cached("a")
	if !ok {
		t.Fatal("leaf has no object lease")
	}
	if d := time.Until(objExpire); d < time.Minute || d > time.Hour {
		t.Errorf("leaf object sub-lease %v ahead, want ~30m", d)
	}
}

func TestProxyPartitionedLeafBoundsOriginWrite(t *testing.T) {
	h := buildHierarchy(t, nil)
	c := h.dial(t, "leaf")
	if _, err := h.read(c, "a"); err != nil {
		t.Fatal(err)
	}
	// Cut the leaf off from the proxy. The origin's write is delayed while
	// the proxy waits for the leaf, but no longer than the leaf's volume
	// sub-lease (≤1s) — and certainly not the 30-minute object sub-lease.
	h.net.Partition("leaf", "proxy")
	writeErr := make(chan error, 1)
	go func() {
		_, _, err := h.write(h.origin, "a", "a v2")
		writeErr <- err
	}()
	// While the proxy's round waits, its state dump names the outstanding
	// ack and the lease bound the wait ends at, so the same dump evaluated
	// past that bound classifies the ack as overdue.
	dump := waitingDump(t, h.px)
	ack := dump.Server.Volumes[0].PendingAcks[0]
	if ack.Client != "leaf" || ack.Object != "a" || ack.Deadline.IsZero() {
		t.Errorf("pending ack = %+v, want leaf/a with a deadline", ack)
	}
	dump.Server.TakenAt = ack.Deadline.Add(time.Second)
	overdue := 0
	for _, d := range state.Diff(dump, nil, state.Options{}).Divergences {
		if d.Kind == state.KindAckOverdue {
			overdue++
		}
	}
	if overdue != 1 {
		t.Errorf("state.Diff past the deadline reported %d ack-overdue divergences, want 1", overdue)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("Write: %v", err)
	}
	if rep := history.Check(h.log); rep.Wait > h.bound+h.slack() {
		t.Errorf("%v waited %v; the subtree bound is %v + %v", rep.Slowest, rep.Wait, h.bound, h.slack())
	}
	// The partitioned leaf cannot read once its (short) volume sub-lease
	// expires.
	time.Sleep(1100 * time.Millisecond)
	if _, err := h.read(c, "a"); err == nil {
		t.Error("partitioned leaf read stale data")
	}
	// After healing, the leaf resynchronizes through the proxy.
	h.net.Heal("leaf", "proxy")
	data, err := h.read(c, "a")
	if err != nil {
		t.Fatalf("read after heal: %v", err)
	}
	if string(data) != "a v2" {
		t.Errorf("read after heal = %q, want a v2", data)
	}
}

func TestProxyDownstreamWritePropagates(t *testing.T) {
	h := buildHierarchy(t, nil)
	c1 := h.dial(t, "leaf-1")
	c2 := h.dial(t, "leaf-2")
	if _, err := h.read(c1, "b"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.read(c2, "b"); err != nil {
		t.Fatal(err)
	}
	// Leaf 1 writes through the proxy; the origin invalidates the proxy,
	// which invalidates both leaves; then everyone reads v2.
	version, _, err := h.write(c1, "b", "b v2")
	if err != nil {
		t.Fatalf("leaf write: %v", err)
	}
	if version != 2 {
		t.Errorf("version = %d", version)
	}
	if v, data, _ := h.origin.Read("b"); v != 2 || string(data) != "b v2" {
		t.Errorf("origin = v%d %q", v, data)
	}
	for i, c := range []*client.Client{c1, c2} {
		data, err := h.read(c, "b")
		if err != nil || string(data) != "b v2" {
			t.Errorf("leaf %d read = %q %v", i, data, err)
		}
	}
}

func TestProxyRestartForcesLeafResync(t *testing.T) {
	h := buildHierarchy(t, nil)
	c := h.dial(t, "leaf")
	if _, err := h.read(c, "a"); err != nil {
		t.Fatal(err)
	}
	// Kill the proxy and start a fresh incarnation on the same address
	// after its startup fence would matter. (Clock.Unix epochs need the
	// boots to land on different seconds.)
	h.px.Close()
	time.Sleep(1100 * time.Millisecond)
	px2, err := proxy.New(proxy.Config{
		ID:             "edge-proxy",
		Addr:           "proxy:2",
		Net:            h.net,
		Upstream:       "origin:1",
		Volume:         "vol",
		SubObjectLease: 30 * time.Minute,
		SubVolumeLease: time.Second,
		Skew:           5 * time.Millisecond,
		MsgTimeout:     50 * time.Millisecond,
		Obs:            h.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer px2.Close()

	// A leaf reconnecting to the new incarnation carries the old epoch and
	// must be forced through the reconnection protocol — and still get
	// correct data.
	c2, err := client.Dial(h.net, "proxy:2", client.Config{
		ID: "leaf", Skew: 5 * time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	data, err := h.read(c2, "a")
	if err != nil {
		t.Fatalf("read via new proxy: %v", err)
	}
	if string(data) != "a v1" {
		t.Errorf("read = %q", data)
	}
}

func TestProxyChainTwoLevels(t *testing.T) {
	// origin <- proxy <- proxy2 <- proxy3 <- leaf: the protocol composes
	// because a proxy is a server downstream and a client upstream, so a
	// deeper tree is more of the same. Every node reports to the auditor.
	h := buildHierarchy(t, nil)
	upstream := "proxy:1"
	for i, subVolLease := range []time.Duration{800 * time.Millisecond, 600 * time.Millisecond} {
		addr := fmt.Sprintf("proxy%d:1", i+2)
		px, err := proxy.New(proxy.Config{
			ID:             core.ClientID(fmt.Sprintf("proxy-level-%d", i+2)),
			Addr:           addr,
			Net:            h.net,
			Upstream:       upstream,
			Volume:         "vol",
			SubObjectLease: 10 * time.Minute,
			SubVolumeLease: subVolLease,
			Skew:           5 * time.Millisecond,
			MsgTimeout:     50 * time.Millisecond,
			Obs:            h.obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer px.Close()
		upstream = addr
	}

	leaf, err := client.Dial(h.net, upstream, client.Config{
		ID: "deep-leaf", Skew: 5 * time.Millisecond, Timeout: 5 * time.Second, Obs: h.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer leaf.Close()

	data, err := h.read(leaf, "a")
	if err != nil {
		t.Fatalf("deep read: %v", err)
	}
	if string(data) != "a v1" {
		t.Errorf("deep read = %q", data)
	}

	// A write at the origin flows down all three levels before completing.
	if _, _, err := h.write(h.origin, "a", "a v2"); err != nil {
		t.Fatalf("Write: %v", err)
	}
	data, err = h.read(leaf, "a")
	if err != nil {
		t.Fatalf("deep read after write: %v", err)
	}
	if string(data) != "a v2" {
		t.Errorf("deep read after write = %q, want a v2", data)
	}
	_, _, invals := leaf.Stats()
	if invals == 0 {
		t.Error("deep leaf never saw the invalidation")
	}
}

func TestProxyConfigValidation(t *testing.T) {
	net := transport.NewMemory()
	base := proxy.Config{
		ID: "p", Addr: "p:1", Net: net, Upstream: "o:1", Volume: "v",
		SubObjectLease: time.Minute, SubVolumeLease: time.Second,
	}
	cases := []struct {
		name string
		mut  func(*proxy.Config)
	}{
		{"no id", func(c *proxy.Config) { c.ID = "" }},
		{"no net", func(c *proxy.Config) { c.Net = nil }},
		{"no upstream", func(c *proxy.Config) { c.Upstream = "" }},
		{"no volume", func(c *proxy.Config) { c.Volume = "" }},
		{"bad object lease", func(c *proxy.Config) { c.SubObjectLease = 0 }},
		{"bad volume lease", func(c *proxy.Config) { c.SubVolumeLease = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := proxy.New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestProxyWrongVolumeRejected(t *testing.T) {
	h := buildHierarchy(t, nil)
	c := h.dial(t, "leaf")
	if _, err := c.Read("other-volume", "a"); err == nil {
		t.Error("read of unproxied volume succeeded")
	}
}
