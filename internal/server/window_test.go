package server_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// These tests land a write inside a volume conversation: between the vector
// the server sends and the client's ack. The client's OnInvalidate hook runs
// while the vector is applied, before the ack goes out, so a write it starts
// lands in that window every time. Each test's reads and writes are recorded
// and must make a linearizable history.

// dialWriting connects client c1 whose hook writes b, once, when a vector
// or invalidation drops its copy of a. The hook's write goes in the test's
// history like every other.
func dialWriting(t *testing.T, env *testEnv) *client.Client {
	t.Helper()
	var once sync.Once
	c, err := client.Dial(env.net, "srv:1", client.Config{
		ID: "c1", Skew: 10 * time.Millisecond, Timeout: 5 * time.Second, Obs: env.obs,
		OnInvalidate: func(objs []core.ObjectID, _ wire.TraceContext) {
			if slices.Contains(objs, "a") {
				once.Do(func() {
					if _, _, err := env.write(env.srv, "b", "b2"); err != nil {
						t.Errorf("Write(b): %v", err)
					}
				})
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestLivePendingDeliveryWindow: in delayed mode, b's write is queued for
// the client while the pending vector [a] is on its way; the client must
// drop b before it gets its volume lease.
func TestLivePendingDeliveryWindow(t *testing.T) {
	table := tableCfg()
	table.Mode = core.ModeDelayed
	env := startServer(t, table, nil)
	c := dialWriting(t, env)
	env.mustRead(t, c, "a")
	env.mustRead(t, c, "b")
	time.Sleep(600 * time.Millisecond) // the volume lease lapses
	if _, _, err := env.write(env.srv, "a", "a2"); err != nil {
		t.Fatal(err)
	}
	if got := env.mustRead(t, c, "b"); got != "b2" {
		t.Errorf("Read(b) after the renewal = %q, want b2", got)
	}
	// The hook's write ran inside that read, so the history admits either
	// value for it; a read called after the write returned must see b2.
	env.mustRead(t, c, "b")
}

// TestLiveReconnectWindow: b's write lands between the reconnection vector
// (invalidate a, renew b) and its ack; it skips the still-Unreachable client,
// which must not be granted the volume with b renewed at the old version.
func TestLiveReconnectWindow(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	c := dialWriting(t, env)
	env.mustRead(t, c, "a")
	env.mustRead(t, c, "b")
	env.net.Partition("c1", "srv")
	// The write waits out the volume lease and makes the client Unreachable.
	if _, _, err := env.write(env.srv, "a", "a2"); err != nil {
		t.Fatal(err)
	}
	env.net.Heal("c1", "srv")
	if got := env.mustRead(t, c, "a"); got != "a2" {
		t.Errorf("Read(a) after the heal = %q, want a2", got)
	}
	if got := env.mustRead(t, c, "b"); got != "b2" {
		t.Errorf("Read(b) after the heal = %q, want b2", got)
	}
}
