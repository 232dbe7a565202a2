package proxy_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestNoGoroutineOutlivesClose builds origin ← proxy ← leaf, runs one read
// and one write with the invalidation it causes, and closes everything. No
// goroutine the build started may then still be running the stack's code: a
// loop without a shutdown edge (the bug class ctxclean finds when the loop
// is written in the spawned function itself) shows up here wherever it sits.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  func() transport.Network
		addr func(host string) string
	}{
		{"memory", func() transport.Network { return transport.NewMemory() }, func(host string) string { return host + ":1" }},
		{"tcp", func() transport.Network { return transport.TCP{} }, func(string) string { return "127.0.0.1:0" }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := goroutines()
			runHierarchyAndClose(t, tc.net(), tc.addr)
			for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
				var leaked []string
				for id, stack := range goroutines() {
					if _, old := before[id]; !old && strings.Contains(stack, "repro/internal/") {
						leaked = append(leaked, stack)
					}
				}
				if len(leaked) == 0 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutine(s) outlived Close:\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
				}
			}
		})
	}
}

// runHierarchyAndClose builds the three nodes on net, drives them, and
// closes them, leaf first, before it returns (also when it fails).
func runHierarchyAndClose(t *testing.T, net transport.Network, addr func(host string) string) {
	t.Helper()
	var closers []func() error
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}()
	origin, err := server.New(server.Config{
		Name: "origin", Addr: addr("origin"), Net: net,
		Table:      core.Config{ObjectLease: time.Hour, VolumeLease: time.Minute, Mode: core.ModeEager},
		MsgTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, origin.Close)
	if err := origin.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	if err := origin.AddObject("vol", "a", []byte("a v1")); err != nil {
		t.Fatal(err)
	}
	px, err := proxy.New(proxy.Config{
		ID: "edge-proxy", Addr: addr("proxy"), Net: net, Upstream: origin.Addr(), Volume: "vol",
		SubObjectLease: time.Minute, SubVolumeLease: time.Minute,
		Skew: 5 * time.Millisecond, MsgTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, px.Close)
	leaf, err := client.Dial(net, px.Addr(), client.Config{ID: "leaf", Skew: 5 * time.Millisecond, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	closers = append(closers, leaf.Close)
	if _, err := leaf.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := leaf.Write("a", []byte("a v2")); err != nil {
		t.Fatal(err)
	}
	if _, _, invals := leaf.Stats(); invals == 0 {
		t.Fatal("the write did not invalidate the leaf's copy")
	}
}

// goroutines maps each live goroutine's ID to its stack trace.
func goroutines() map[string]string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		out[strings.Fields(g)[1]] = g // "goroutine <id> [<state>]:"
	}
	return out
}
