package client_test

import (
	"slices"
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

// frameTap records the kind of every frame sent on any connection of the
// network it is attached to.
type frameTap struct {
	mu    sync.Mutex
	kinds []wire.Kind
}

func (f *frameTap) TapConn(local, remote string) transport.Sink { return f }

func (f *frameTap) Observe(fr transport.Frame) {
	if fr.Sent {
		f.mu.Lock()
		f.kinds = append(f.kinds, fr.Msg.Kind())
		f.mu.Unlock()
	}
}

// take returns the kinds recorded since the last take.
func (f *frameTap) take() []wire.Kind {
	f.mu.Lock()
	defer f.mu.Unlock()
	kinds := f.kinds
	f.kinds = nil
	return kinds
}

// TestVolumeConversationFrames pins the frames each shape of the volume
// conversation sends, in order, on the live stack: a real server and client
// on a tapped in-memory network, in delayed mode with a 30 s discard window
// and one simulated clock. The server's sweeper never runs, so the discard
// is the request's own (a sweep at the same instant could discard the
// reconnecting client once more and add a round). A fresh client's first read costs 8 frames (3 round
// trips for the volume lease, since first contact presents no epoch, and 1
// for the object); a plain renewal 2; pending delivery of a queued
// invalidation 4; a reconnection after the discard 6.
func TestVolumeConversationFrames(t *testing.T) {
	clk := clock.NewSimulated(clock.Epoch)
	tap := &frameTap{}
	net := transport.NewMemory()
	net.Taps = []transport.Tap{tap}
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net, Clock: clk, SweepInterval: time.Hour,
		Table: core.Config{ObjectLease: 10 * time.Minute, VolumeLease: 10 * time.Second,
			Mode: core.ModeDelayed, InactiveDiscard: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := srv.AddObject("vol", oid(i), payload(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := client.Dial(net, "srv:1", client.Config{ID: "reader", Clock: clk, Skew: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	tap.take() // Hello

	reconnect := []wire.Kind{wire.KindReqVolLease, wire.KindMustRenewAll, wire.KindRenewObjLeases,
		wire.KindInvalRenew, wire.KindAckInvalidate, wire.KindVolLease}
	read := func(i int) func() error {
		return func() error { _, err := c.Read("vol", oid(i)); return err }
	}
	renew := func() error { return c.RenewVolume("vol") }
	for _, step := range []struct {
		name   string
		before func() // at the step's start, off the count
		run    func() error
		want   []wire.Kind
	}{
		{"first read", func() {}, read(0), append(reconnect, wire.KindReqObjLease, wire.KindObjLease)},
		// The lease granted at 0 s lapsed at 10 s; nothing is queued.
		{"plain renewal", func() { clk.Advance(11 * time.Second) }, renew,
			[]wire.Kind{wire.KindReqVolLease, wire.KindVolLease}},
		// The lease granted at 11 s lapsed at 21 s, so the write is queued.
		{"pending delivery", func() {
			clk.Advance(11 * time.Second)
			if _, _, err := srv.Write(oid(0), payload(0, 2)); err != nil {
				t.Fatal(err)
			}
		}, renew, []wire.Kind{wire.KindReqVolLease, wire.KindInvalRenew, wire.KindAckInvalidate, wire.KindVolLease}},
		// The lease granted at 22 s lapses at 32 s; o1's lease runs past
		// 32 + 30 s, so the reader is discarded to the Unreachable set.
		{"reconnection", func() {
			if err := read(1)(); err != nil {
				t.Fatal(err)
			}
			tap.take()
			clk.Advance(41 * time.Second)
		}, renew, reconnect},
	} {
		step.before()
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if kinds := tap.take(); !slices.Equal(kinds, step.want) {
			t.Errorf("%s: %d frames %v, want %d: %v", step.name, len(kinds), kinds, len(step.want), step.want)
		}
	}
	if _, ok := c.Peek(oid(0)); ok {
		t.Error("o0's copy survived the pending delivery of its invalidation")
	}
}
