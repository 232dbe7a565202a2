package cost_test

// The accounting conservation test (run under -race by `make race` and CI):
// a real server and concurrent clients over the in-memory transport and
// over batched TCP, with the consistency auditor attached and cost
// accounting tapping every connection. After the run, the books must
// balance: the per-kind frame/byte tallies sum exactly to the transport
// totals, the per-connection tallies sum to the same totals, the per-volume
// tallies never exceed them, and on TCP the batcher's own frame count agrees.
// A reference sink beside it on the tap checks the one count: every frame
// the network carried is in the exported lease_cost_messages_total.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestAccountingConservation(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		runConservation(t, func(taps []transport.Tap) (transport.Network, string, *transport.BatchStats) {
			mem := transport.NewMemory()
			mem.Taps = taps
			return mem, "srv:1", nil
		})
	})
	// The same books must balance when every frame crosses the batched TCP
	// path: coalescing frames into shared kernel flushes must not create,
	// lose, or double-count a single frame or byte, and the batcher's own
	// conservation (frames = flushes + coalesced) must agree with the cost
	// layer's sent-frame total.
	t.Run("tcp-batched", func(t *testing.T) {
		stats := &transport.BatchStats{}
		runConservation(t, func(taps []transport.Tap) (transport.Network, string, *transport.BatchStats) {
			return transport.TCP{Stats: stats, Taps: taps}, "127.0.0.1:0", stats
		})
	})
}

func runConservation(t *testing.T, newNet func([]transport.Tap) (transport.Network, string, *transport.BatchStats)) {
	const (
		nClients = 6
		nOps     = 120
	)

	reg := obs.NewRegistry()
	observer := &obs.Observer{Metrics: reg}
	aud := audit.New(audit.LiveConfig(core.Config{
		Mode:        core.ModeEager,
		ObjectLease: 10 * time.Second,
		VolumeLease: 10 * time.Second,
	}, false))
	observer.Tracer = obs.NewTracer(aud)

	acct := cost.New("srv", time.Now)
	acct.Register(reg)
	carried := &frameCount{}

	netw, listenAddr, batch := newNet([]transport.Tap{acct, carried})

	srv, err := server.New(server.Config{
		Name:       "srv",
		Addr:       listenAddr,
		Net:        netw,
		Table:      core.Config{Mode: core.ModeEager, ObjectLease: 10 * time.Second, VolumeLease: 10 * time.Second},
		MsgTimeout: 100 * time.Millisecond,
		Obs:        observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	// Shared objects are read by everyone and written via the server (the
	// invalidate/ack fan-out); each client additionally writes a private
	// object nobody else caches. Concurrent client writes to SHARED objects
	// would interlock: each conn's server goroutine blocks in its write
	// waiting for acks that only other (equally blocked) conn goroutines
	// could read — the same reason the chaos tests drive churn with
	// srv.Write.
	shared := []core.ObjectID{"a", "b", "c", "d"}
	for _, o := range shared {
		if err := srv.AddObject("vol", o, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nClients; i++ {
		oid := core.ObjectID(fmt.Sprintf("own-%d", i))
		if err := srv.AddObject("vol", oid, []byte("init")); err != nil {
			t.Fatal(err)
		}
	}

	var writerWG sync.WaitGroup
	stop := make(chan struct{})
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			obj := shared[i%len(shared)]
			if _, _, err := srv.Write(obj, []byte(fmt.Sprintf("srv-%d", i))); err != nil {
				t.Errorf("server write %d: %v", i, err)
				return
			}
		}
	}()
	// Clients stay connected until the server writer stops: closing one
	// mid-churn would leave its 10s leases behind, and every subsequent
	// server write would burn MsgTimeout on the unreachable holder.
	clients := make([]*client.Client, nClients)
	for i := range clients {
		cl, err := client.Dial(netw, srv.Addr(), client.Config{
			ID:      core.ClientID(fmt.Sprintf("client-%d", i)),
			Skew:    10 * time.Millisecond,
			Timeout: 30 * time.Second,
			Obs:     observer,
		})
		if err != nil {
			t.Fatalf("client %d: dial: %v", i, err)
		}
		clients[i] = cl
	}
	defer func() {
		for _, cl := range clients {
			cl.Close()
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := clients[i]
			own := core.ObjectID(fmt.Sprintf("own-%d", i))
			for op := 0; op < nOps; op++ {
				if op%10 == 9 {
					if _, _, err := cl.Write(own, []byte(fmt.Sprintf("w%d-%d", i, op))); err != nil {
						t.Errorf("client %d: write: %v", i, err)
						return
					}
					continue
				}
				obj := shared[(i+op)%len(shared)]
				if _, err := cl.Read("vol", obj); err != nil {
					t.Errorf("client %d: read: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
	// Quiesce: disconnect the clients, then close the server so no push
	// traffic is mid-flight when we snapshot the books.
	for _, cl := range clients {
		cl.Close()
	}
	srv.Close()
	// A sender counts its frame after handing it to the connection, so the
	// last acknowledgments of the run can still be between the two when the
	// connections close. The books are settled once every received frame has
	// been counted as sent, every frame the batcher drained has, and the last
	// sink in the tap's list has seen what the first has.
	settled := func() bool {
		tot := acct.Totals()
		return tot.MessagesSent >= tot.MessagesRecv &&
			(batch == nil || batch.Snapshot().Frames == tot.MessagesSent) &&
			carried.n.Load() == tot.MessagesSent+tot.MessagesRecv
	}
	for deadline := time.Now().Add(2 * time.Second); !settled() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	d := acct.Snapshot()
	if d.Totals.MessagesSent == 0 || d.Totals.MessagesRecv == 0 {
		t.Fatalf("no traffic accounted: %+v", d.Totals)
	}

	// (1) Per-kind tallies sum exactly to the totals.
	var kindSum cost.Totals
	for _, k := range d.Kinds {
		kindSum.MessagesSent += k.FramesSent
		kindSum.MessagesRecv += k.FramesRecv
		kindSum.BytesSent += k.BytesSent
		kindSum.BytesRecv += k.BytesRecv
	}
	if kindSum != d.Totals {
		t.Errorf("per-kind sum %+v != totals %+v", kindSum, d.Totals)
	}

	// (2) Per-connection tallies sum exactly to the totals.
	var connSum cost.Totals
	for _, c := range d.Conns {
		connSum.MessagesSent += c.FramesSent
		connSum.MessagesRecv += c.FramesRecv
		connSum.BytesSent += c.BytesSent
		connSum.BytesRecv += c.BytesRecv
	}
	if connSum != d.Totals {
		t.Errorf("per-conn sum %+v != totals %+v", connSum, d.Totals)
	}

	// (3) Per-volume tallies never exceed the totals (only volume-carrying
	// kinds are attributed).
	var volSum cost.Totals
	for _, v := range d.Volumes {
		volSum.MessagesSent += v.FramesSent
		volSum.MessagesRecv += v.FramesRecv
		volSum.BytesSent += v.BytesSent
		volSum.BytesRecv += v.BytesRecv
	}
	if volSum.MessagesSent > d.Totals.MessagesSent || volSum.MessagesRecv > d.Totals.MessagesRecv ||
		volSum.BytesSent > d.Totals.BytesSent || volSum.BytesRecv > d.Totals.BytesRecv {
		t.Errorf("per-volume sum %+v exceeds totals %+v", volSum, d.Totals)
	}
	if volSum.MessagesSent == 0 && volSum.MessagesRecv == 0 {
		t.Error("no volume-attributed traffic despite volume-lease conversations")
	}

	// (4) Byte tallies are consistent with per-kind frame counts: every
	// frame carried at least the 1-byte kind.
	for _, k := range d.Kinds {
		if k.BytesSent < k.FramesSent || k.BytesRecv < k.FramesRecv {
			t.Errorf("%s: fewer bytes than frames: %+v", k.Kind, k)
		}
	}

	// (5) On the batched TCP path the batcher's own accounting must agree
	// with the cost layer: every frame the cost sink saw leave was
	// drained in some flush (frames conserve across coalescing), and the
	// size histogram covers every flush.
	if batch != nil {
		snap := batch.Snapshot()
		if snap.Frames != d.Totals.MessagesSent {
			t.Errorf("batcher drained %d frames, cost accounted %d sent", snap.Frames, d.Totals.MessagesSent)
		}
		if snap.Coalesced != snap.Frames-snap.Flushes {
			t.Errorf("coalesced = %d, want frames-flushes = %d", snap.Coalesced, snap.Frames-snap.Flushes)
		}
		var bucketSum int64
		for _, c := range snap.SizeCounts {
			bucketSum += c
		}
		if bucketSum != snap.Flushes {
			t.Errorf("size histogram sums to %d flushes, want %d", bucketSum, snap.Flushes)
		}
	}

	// (6) One count per frame: what the network carried is what the cost
	// series export, and received frames are charged their bytes like sent
	// ones.
	var prom strings.Builder
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	var exported int64
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "lease_cost_messages_total{") {
			var n int64
			fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n)
			exported += n
		}
	}
	if n := carried.n.Load(); n == 0 || exported != n {
		t.Errorf("network carried %d frames, lease_cost_messages_total sums to %d", n, exported)
	}
	if d.Totals.BytesRecv == 0 {
		t.Error("received frames were charged no bytes")
	}

	// The auditor saw the run and found nothing.
	if n := aud.Violations(); len(n) != 0 {
		t.Errorf("audit violations: %v", n)
	}
}

// frameCount is the reference sink: it only counts what the tap delivers.
type frameCount struct{ n atomic.Int64 }

func (c *frameCount) TapConn(local, remote string) transport.Sink { return c }
func (c *frameCount) Observe(transport.Frame)                     { c.n.Add(1) }

// TestConservationKindsAreProtocolKinds pins that the dump only ever
// reports real wire kinds — the bridge between live accounting and the
// simulator's MsgClass mapping in `figures -cost` depends on it.
func TestConservationKindsAreProtocolKinds(t *testing.T) {
	acct := cost.New("n", time.Now)
	acct.TapConn("a", "b").Observe(transport.Frame{Sent: true, Msg: wire.Hello{Client: "c"}, Size: 8})
	for _, k := range acct.Snapshot().Kinds {
		found := false
		for i := 1; i < wire.NumKinds; i++ {
			if wire.Kind(i).String() == k.Kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("dump reports non-protocol kind %q", k.Kind)
		}
	}
}
