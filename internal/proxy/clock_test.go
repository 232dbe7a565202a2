package proxy_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestProxyNoSubLeaseOnceUpstreamLapsedMonotonically: the proxy grants
// against an upstream lease only while its upstream client would itself read
// under it, and that is a question for the monotonic clock. The origin grants
// one-second object leases; the proxy host's wall clock (its leaves share it)
// is set back an hour after the first fetch and two seconds pass. A fresh
// leaf's request must send the proxy back to the origin. Compared on the
// wall clock, the stepped clock reads an hour before the upstream expiry and
// the proxy grants a sub-lease on a copy it no longer holds a lease for.
func TestProxyNoSubLeaseOnceUpstreamLapsedMonotonically(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	wall := &clock.Offset{Clock: sim}
	net := transport.NewMemory()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: "origin:1", Net: net, Clock: sim,
		Table: core.Config{ObjectLease: time.Second, VolumeLease: 10 * time.Minute, Mode: core.ModeEager},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { origin.Close() })
	if err := origin.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	if err := origin.AddObject("vol", "a", []byte("a v1")); err != nil {
		t.Fatal(err)
	}
	px, err := proxy.New(proxy.Config{
		ID: "edge-proxy", Addr: "proxy:1", Net: net, Upstream: "origin:1", Volume: "vol",
		SubObjectLease: 10 * time.Minute, SubVolumeLease: 10 * time.Minute,
		Skew: 5 * time.Millisecond, Clock: wall,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { px.Close() })
	read := func(id core.ClientID) {
		t.Helper()
		c, err := client.Dial(net, "proxy:1", client.Config{ID: id, Skew: 5 * time.Millisecond, Clock: wall})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if data, err := c.Read("vol", "a"); err != nil || string(data) != "a v1" {
			t.Fatalf("%s read %q, %v", id, data, err)
		}
	}
	// upstreamExpire is the expiry of the lease the proxy holds on "a".
	upstreamExpire := func() time.Time {
		t.Helper()
		for _, o := range px.StateSnapshot().Clients[0].Objects {
			if o.Object == "a" {
				return o.Expire
			}
		}
		t.Fatal("proxy holds no upstream lease on a")
		return time.Time{}
	}

	read("leaf-1")
	first := upstreamExpire()
	read("leaf-2") // upstream lease live: a proxy hit
	if got := upstreamExpire(); !got.Equal(first) {
		t.Fatalf("a second leaf within the upstream term sent the proxy upstream (expiry %v -> %v)", first, got)
	}

	wall.Step(-time.Hour)
	sim.Advance(2 * time.Second)
	read("leaf-3")
	if got := upstreamExpire(); !got.After(first) {
		t.Errorf("upstream lease still expires at %v after it lapsed: the proxy granted a sub-lease without going back to the origin", got)
	}
}
