package server_test

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
)

// TestRedialSurvivesServerRecover exercises the full crash-restart-redial
// loop: the server recovers (dropping every connection and bumping epochs),
// the client automatically reconnects and, once the write fence drains,
// resynchronizes through the epoch-triggered reconnection protocol.
func TestRedialSurvivesServerRecover(t *testing.T) {
	env, ring := tracedEnv(t)
	c, err := client.Dial(env.net, "srv:1", client.Config{
		ID:      "phoenix",
		Skew:    10 * time.Millisecond,
		Timeout: 3 * time.Second,
		Redial:  true,
		Obs:     env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if got := env.mustReadRetry(t, c, "a"); got != "init-a" {
		t.Fatalf("read = %q", got)
	}

	env.srv.Recover() // connections die; epoch 0 -> 1; writes fenced

	// The fence (one volume lease = 400ms) must drain before new writes.
	time.Sleep(600 * time.Millisecond)
	if _, _, err := env.write(env.srv, "a", "after-crash"); err != nil {
		t.Fatalf("write after fence: %v", err)
	}

	// The client redialed in the background; its first renewal carries the
	// stale epoch and runs the reconnection protocol, invalidating a.
	if got := env.mustReadRetry(t, c, "a"); got != "after-crash" {
		t.Fatalf("read after recover = %q, want after-crash", got)
	}
	if e, _ := env.srv.Epoch("vol"); e != 1 {
		t.Errorf("epoch = %d, want 1", e)
	}
	// Each redial is one record, timing the outage and counting the dials.
	redials := 0
	for _, e := range ring.Snapshot() {
		if e.Type == obs.EvRedial {
			redials++
			if e.Client != "phoenix" || e.N < 1 || e.Span == 0 || e.Trace != e.Span {
				t.Errorf("redial record %v, want phoenix's own trace with its dial attempts", e)
			}
		}
	}
	if redials == 0 {
		t.Error("the redial left no record")
	}
}

// TestRedialAfterListenerRestart drops the client's specific connection
// (not the whole server) and verifies transparent resumption.
func TestRedialAfterConnDrop(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	c, err := client.Dial(env.net, "srv:1", client.Config{
		ID:      "bouncy",
		Skew:    10 * time.Millisecond,
		Timeout: 3 * time.Second,
		Redial:  true,
		Obs:     env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := env.mustReadRetry(t, c, "a"); got != "init-a" {
		t.Fatalf("read = %q", got)
	}

	// Sever the link by dialing a second client with the same ID: the
	// server closes the old connection on duplicate Hello.
	c2, err := client.Dial(env.net, "srv:1", client.Config{ID: "bouncy", Obs: env.obs})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// The first client redials (stealing the identity back) and keeps
	// working; its leases are still on the server, so reads stay cheap.
	if got := env.mustReadRetry(t, c, "b"); got != "init-b" {
		t.Fatalf("read after reconnect = %q", got)
	}
}

func TestRedialDisabledFailsPermanently(t *testing.T) {
	env := startServer(t, tableCfg(), nil)
	c := env.dial(t, "mortal") // Redial off
	env.mustRead(t, c, "a")
	env.srv.Recover()
	time.Sleep(50 * time.Millisecond)
	// Cached reads under still-valid leases are allowed (the fence protects
	// them); a read requiring the server must fail.
	time.Sleep(600 * time.Millisecond) // let leases lapse
	if _, err := c.Read("vol", "a"); err == nil {
		t.Fatal("read succeeded on a dead connection without Redial")
	}
}

// mustReadRetry reads, retrying transient ErrRetry results that redial
// produces when it replaces the connection mid-conversation.
func (e *testEnv) mustReadRetry(t *testing.T, c *client.Client, oid core.ObjectID) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := e.read(c, oid)
		if err == nil {
			return data
		}
		if time.Now().After(deadline) {
			t.Fatalf("Read(%s) never succeeded: %v", oid, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
