package proxy

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestInstallAfterUpstreamDrop is the window between a consult's Fetch and
// its Install: the upstream read has returned, and then the origin's
// invalidation of the object has dropped the proxy's upstream copy before
// Install runs. Install must install nothing and return no error, so the
// parked leaf request goes round again instead of failing; the next read
// through the proxy fetches the new version.
func TestInstallAfterUpstreamDrop(t *testing.T) {
	clk := clock.NewSimulated(clock.Epoch)
	net := transport.NewMemory()
	leases := core.Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: core.ModeEager}
	origin, err := server.New(server.Config{Name: "origin", Addr: "origin:1", Net: net, Clock: clk, Table: leases})
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
	p, err := New(Config{ID: "edge-proxy", Addr: "proxy:1", Net: net, Upstream: "origin:1", Volume: "vol",
		Clock: clk, SubObjectLease: 30 * time.Minute, SubVolumeLease: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })

	u := (*upstream)(p)
	if _, err := u.Fetch("a"); err != nil {
		t.Fatal(err)
	}
	// The write returns once the proxy has dropped its copy and acked.
	if _, _, err := origin.Write("a", []byte("a v2")); err != nil {
		t.Fatal(err)
	}
	tbl, err := core.NewTable(leases)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateVolume("vol"); err != nil {
		t.Fatal(err)
	}
	if err := u.Install(tbl, "a"); err != nil {
		t.Fatalf("Install after the upstream copy was dropped: %v, want nil (go round again)", err)
	}
	if _, _, err := tbl.Read("a"); err == nil {
		t.Error("Install installed an object whose upstream copy is gone")
	}
	if u.known["a"] {
		t.Error("the proxy vouches for a copy it never installed")
	}

	leaf, err := client.Dial(net, "proxy:1", client.Config{ID: "leaf", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leaf.Close() })
	if data, err := leaf.Read("vol", "a"); err != nil || string(data) != "a v2" {
		t.Fatalf("leaf read through the proxy = %q, %v; want \"a v2\"", data, err)
	}
}
