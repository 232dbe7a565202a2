package server_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// These tests replay an acknowledgment overtaken by a reconnect. A holder
// whose OnInvalidate hook is slow (a proxy waiting out its own downstream
// round) sends its write ack late, after the write has timed it out and it
// has reconnected and re-fetched the object. Everything runs on one
// simulated clock, and each hook call waits on a gate the test opens.

// lateAckTable: an hour-long object lease, so a write waits out the 10 s
// volume lease, and a reconnected holder's object lease outlives the test.
var lateAckTable = core.Config{ObjectLease: time.Hour, VolumeLease: 10 * time.Second, Mode: core.ModeEager}

// gatedHolder is a client whose OnInvalidate hook reports each call on
// entered and then waits on the next gate queued in gates, if there is one.
type gatedHolder struct {
	c       *client.Client
	gates   chan chan struct{}
	entered chan struct{}
	acked   chan struct{} // one tick per write ack the client has sent
}

func dialGated(t *testing.T, env *testEnv, sim *clock.Simulated) *gatedHolder {
	t.Helper()
	h := &gatedHolder{
		gates:   make(chan chan struct{}, 4),
		entered: make(chan struct{}, 4),
		acked:   make(chan struct{}, 4),
	}
	c, err := client.Dial(ackSignalNet{Memory: env.net, acked: h.acked}, "srv:1", client.Config{
		ID: "holder", Skew: 10 * time.Millisecond, Timeout: time.Hour, Clock: sim, Obs: env.obs,
		OnInvalidate: func([]core.ObjectID, wire.TraceContext) {
			h.entered <- struct{}{}
			select {
			case g := <-h.gates:
				<-g
			default:
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	h.c = c
	return h
}

// gate queues a gate for the next hook call and returns its release. The
// release also runs at cleanup, before the client is closed, so a failing
// test does not leave Close waiting on a parked hook.
func (h *gatedHolder) gate(t *testing.T) func() {
	g := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(g) }) }
	t.Cleanup(release)
	h.gates <- g
	return release
}

// await waits for one tick on ch.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// goWrite runs a server write on its own goroutine.
func goWrite(env *testEnv, oid core.ObjectID, data string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := env.write(env.srv, oid, data)
		done <- err
	}()
	return done
}

func awaitWrite(t *testing.T, done <-chan error) {
	t.Helper()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Write: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write did not return")
	}
}

// ackSignalNet is the in-memory network with the client's sends watched:
// each write acknowledgment (AckInvalidate, Seq 0) ticks acked once it is on
// the wire.
type ackSignalNet struct {
	*transport.Memory
	acked chan struct{}
}

func (n ackSignalNet) DialFrom(local, addr string) (transport.Conn, error) {
	c, err := n.Memory.DialFrom(local, addr)
	if err != nil {
		return nil, err
	}
	return ackSignalConn{Conn: c, acked: n.acked}, nil
}

type ackSignalConn struct {
	transport.Conn
	acked chan struct{}
}

func (c ackSignalConn) Send(m wire.Message) error {
	err := c.Conn.Send(m)
	if a, ok := m.(wire.AckInvalidate); ok && a.Seq == 0 {
		c.acked <- struct{}{}
	}
	return err
}

// timeOutAndRefetch writes a while the holder's hook is held, lets the write
// time the holder out, and has the holder reconnect and fetch the new
// version. It returns the release of the held hook.
func timeOutAndRefetch(t *testing.T, env *testEnv, sim *clock.Simulated, h *gatedHolder) func() {
	t.Helper()
	if got := env.mustRead(t, h.c, "a"); got != "init-a" {
		t.Fatalf("first read = %q", got)
	}
	release := h.gate(t)
	first := goWrite(env, "a", "a v2")
	await(t, h.entered, "the first write's invalidation")
	sim.Advance(lateAckTable.VolumeLease) // the holder's bound: the write times it out
	awaitWrite(t, first)
	if got := env.mustRead(t, h.c, "a"); got != "a v2" { // reconnect, re-fetch
		t.Fatalf("read after reconnect = %q, want a v2", got)
	}
	return release
}

// TestLateAckKeepsFreshLease: the first write's ack arrives after the holder
// has re-fetched a under a fresh lease. It must not release that lease: the
// next write of a has to invalidate the holder, or the holder keeps reading
// the old version under valid leases.
func TestLateAckKeepsFreshLease(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	env := startServer(t, lateAckTable, func(c *server.Config) { c.Clock = sim; c.SweepInterval = time.Hour })
	h := dialGated(t, env, sim)
	release := timeOutAndRefetch(t, env, sim, h)

	release() // the late AckInvalidate{Seq: 0, Objects: [a]}
	await(t, h.acked, "the late ack")
	env.mustRead(t, h.c, "b") // a round trip behind the ack: the server has handled it

	awaitWrite(t, goWrite(env, "a", "a v3"))
	select {
	case <-h.entered:
	default:
		t.Error("the second write did not invalidate the holder")
	}
	if got := env.mustRead(t, h.c, "a"); got != "a v3" {
		t.Fatalf("holder reads %q after the second write, want a v3", got)
	}
}

// TestLateAckDoesNotCompleteLaterWrite: the first write's ack arrives while
// a second write of a waits on the same holder. The ack answers the first
// write only, so the second keeps waiting for the holder's own ack.
func TestLateAckDoesNotCompleteLaterWrite(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	env := startServer(t, lateAckTable, func(c *server.Config) { c.Clock = sim; c.SweepInterval = time.Hour })
	h := dialGated(t, env, sim)
	releaseFirst := timeOutAndRefetch(t, env, sim, h)

	releaseSecond := h.gate(t)
	second := goWrite(env, "a", "a v3")
	await(t, h.entered, "the second write's invalidation")
	releaseFirst() // the late ack, while the second write waits on the holder
	await(t, h.acked, "the late ack")
	env.mustRead(t, h.c, "b")

	owed := false
	for _, pa := range env.srv.StateSnapshot().Server.Volumes[0].PendingAcks {
		owed = owed || (pa.Client == "holder" && pa.Object == "a")
	}
	if !owed {
		t.Error("the first write's ack released the holder from the second write")
	}
	select {
	case err := <-second:
		t.Fatalf("the second write returned (%v) on the first write's ack", err)
	default:
	}
	releaseSecond()
	await(t, h.acked, "the second write's ack")
	awaitWrite(t, second)
	if got := env.mustRead(t, h.c, "a"); got != "a v3" {
		t.Fatalf("holder reads %q after the second write, want a v3", got)
	}
}
