package server_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/server"
)

// These tests drive a client's write over the wire against a server on a
// simulated clock. The write is state in the server, not a goroutine: the
// reader that receives the WriteReq begins it, and the last ack, the
// deadline or Close finishes it and sends the reply.

// simEnv is a server on sim with lateAckTable's leases (a write waits out a
// holder's 10 s volume lease) and a sweep an hour away, so the only timer
// due sooner is a write's deadline.
func simEnv(t *testing.T, sim *clock.Simulated) *testEnv {
	t.Helper()
	return startServer(t, lateAckTable, func(c *server.Config) { c.Clock = sim; c.SweepInterval = time.Hour })
}

// dialSim connects a client on sim whose RPCs never time out on it.
func dialSim(t *testing.T, env *testEnv, sim *clock.Simulated, id core.ClientID) *client.Client {
	t.Helper()
	c, err := client.Dial(env.net, "srv:1", client.Config{
		ID: id, Skew: 10 * time.Millisecond, Timeout: time.Hour, Clock: sim, Obs: env.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// wireWrite is the outcome of a client's write.
type wireWrite struct {
	version core.Version
	waited  time.Duration
	err     error
}

// goWireWrite sends a WriteReq from c on its own goroutine.
func goWireWrite(c *client.Client, oid core.ObjectID, data string) <-chan wireWrite {
	out := make(chan wireWrite, 1)
	go func() {
		v, waited, err := c.Write(oid, []byte(data))
		out <- wireWrite{v, waited, err}
	}()
	return out
}

func awaitWireWrite(t *testing.T, ch <-chan wireWrite) wireWrite {
	t.Helper()
	select {
	case w := <-ch:
		return w
	case <-time.After(5 * time.Second):
		t.Fatal("no WriteReply within 5s")
		return wireWrite{}
	}
}

// awaitDeadline waits until a timer is due at or before by on sim: a write
// in flight has armed its deadline.
func awaitDeadline(t *testing.T, sim *clock.Simulated, by time.Time) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if dl, ok := sim.NextDeadline(); ok && !dl.After(by) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no write deadline armed within 5s")
		}
	}
}

// noTimerBefore fails if a timer is still due before by on sim.
func noTimerBefore(t *testing.T, sim *clock.Simulated, by time.Time) {
	t.Helper()
	if dl, ok := sim.NextDeadline(); ok && dl.Before(by) {
		t.Errorf("a timer is still due at %v: a finished write left its deadline behind", dl.Sub(clock.Epoch))
	}
}

// stacksIn returns the stacks of the live goroutines that contain any of
// frames.
func stacksIn(frames ...string) []string {
	var out []string
	for _, stack := range goroutineStacks() {
		for _, f := range frames {
			if strings.Contains(stack, f) {
				out = append(out, stack)
				break
			}
		}
	}
	return out
}

func goroutineStacks() []string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestWireWriteParksNoGoroutine: a client's write that waits out a
// partitioned holder is held by no goroutine while it waits. Advancing the
// clock past the holder's bound min(t, t_v) finishes it on the clock's
// timer: the reply arrives, the holder is unreachable, and no timer is left.
func TestWireWriteParksNoGoroutine(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	env := simEnv(t, sim)
	holder := dialSim(t, env, sim, "holder")
	if _, err := holder.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	writer := dialSim(t, env, sim, "writer")
	env.net.Partition("holder", "srv")

	bound := clock.Epoch.Add(lateAckTable.VolumeLease) // the holder's volume lease
	reply := goWireWrite(writer, "a", "a v2")
	awaitDeadline(t, sim, bound)
	if parked := stacksIn("server.(*Server).handleWriteReq", "server.(*Server).WriteTraced"); len(parked) > 0 {
		t.Fatalf("%d goroutine(s) hold the write while it waits:\n\n%s", len(parked), strings.Join(parked, "\n\n"))
	}
	select {
	case w := <-reply:
		t.Fatalf("the write returned before the holder's bound: %+v", w)
	default:
	}

	sim.AdvanceTo(bound)
	w := awaitWireWrite(t, reply)
	if w.err != nil || w.version != 2 || w.waited != lateAckTable.VolumeLease {
		t.Fatalf("write = %+v, want version 2 after waiting %v", w, lateAckTable.VolumeLease)
	}
	if n := env.srv.Stats().UnreachableClients; n != 1 {
		t.Errorf("%d unreachable clients, want the holder", n)
	}
	noTimerBefore(t, sim, clock.Epoch.Add(time.Hour))
}

// TestWireWritesOfOneObjectInOrder: two clients' writes of one object. The
// second arrives while the first waits for the holder's ack; the table
// refuses it, and it is parked until the first finishes. The first reply
// comes only after the holder's ack and carries version 2; the second
// carries version 3. Both are acked or bare, so no timer is left behind.
func TestWireWritesOfOneObjectInOrder(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	env := simEnv(t, sim)
	h := dialGated(t, env, sim)
	if _, err := h.c.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	release := h.gate(t)
	first := goWireWrite(dialSim(t, env, sim, "w1"), "a", "a v2")
	await(t, h.entered, "the first write's invalidation")
	second := goWireWrite(dialSim(t, env, sim, "w2"), "a", "a v3")
	for deadline := time.Now().Add(5 * time.Second); len(stacksIn("server.(*Server).park.func1")) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second write was not parked within 5s")
		}
	}
	select {
	case w := <-first:
		t.Fatalf("the first write returned before the holder acked: %+v", w)
	case w := <-second:
		t.Fatalf("the second write returned while the first was in flight: %+v", w)
	default:
	}

	release()
	await(t, h.acked, "the holder's ack")
	if w := awaitWireWrite(t, first); w.err != nil || w.version != 2 {
		t.Fatalf("first write = %+v, want version 2", w)
	}
	if w := awaitWireWrite(t, second); w.err != nil || w.version != 3 {
		t.Fatalf("second write = %+v, want version 3", w)
	}
	if v, data, _ := env.srv.Read("a"); v != 3 || string(data) != "a v3" {
		t.Errorf("server holds version %d %q, want 3 \"a v3\"", v, data)
	}
	noTimerBefore(t, sim, clock.Epoch.Add(time.Hour))
}

// TestCloseFinishesPendingWireWrite: Close with a client's write waiting
// out a partitioned holder finishes the write, as its deadline would have
// (committed, the holder unreachable), returns without the clock moving,
// and leaves neither the write's timer nor a goroutine of the server.
func TestCloseFinishesPendingWireWrite(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	env := simEnv(t, sim)
	holder := dialSim(t, env, sim, "holder")
	if _, err := holder.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}
	writer := dialSim(t, env, sim, "writer")
	env.net.Partition("holder", "srv")
	reply := goWireWrite(writer, "a", "a v2")
	awaitDeadline(t, sim, clock.Epoch.Add(lateAckTable.VolumeLease))

	closed := make(chan struct{})
	go func() {
		env.srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5s with a write pending")
	}
	// The reply's connection is gone with the server.
	if w := awaitWireWrite(t, reply); w.err == nil {
		t.Errorf("the write reported success (%+v) from a closed server", w)
	}
	if v, data, _ := env.srv.Read("a"); v != 2 || string(data) != "a v2" {
		t.Errorf("server holds version %d %q, want the pending write committed", v, data)
	}
	if n := env.srv.Stats().UnreachableClients; n != 1 {
		t.Errorf("%d unreachable clients, want the holder", n)
	}
	noTimerBefore(t, sim, clock.Epoch.Add(time.Hour))
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		left := stacksIn("repro/internal/server.")
		if len(left) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) of the server outlived Close:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	}
	if _, _, err := env.srv.Write("b", []byte("b v2")); err == nil {
		t.Error("a write began after Close")
	}
}
