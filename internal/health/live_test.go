package health_test

// The live test of the flight dump: a real server over the in-memory
// transport on a simulated clock, a few seconds of background reads, then a
// partition cutting a lease-holding client off mid-write. The server waits
// the write out and marks the client unreachable; the test then freezes the
// node's event ring, load and lease table the way `leasemon -freeze` does,
// parses the dump like an operator, and asserts it holds (1) at least 2s of
// pre-freeze context, (2) the incident's events, and (3) the run's load,
// second by second.

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

func TestChaosPartitionLeavesFlightDump(t *testing.T) {
	sim := clock.NewSimulated(clock.Epoch)
	net := transport.NewMemory()
	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	ring := obs.NewRingSink(8192)
	acct := cost.New("srv", sim.Now)
	net.Taps = []transport.Tap{acct}
	observer.Tracer = obs.NewTracer(ring)

	// The per-second sampler runs on a clock of its own, kept in step with
	// the node's: its only timer is the sampler's, so the test can tell when
	// the sampler has filed a second and is waiting for the next.
	ticks := clock.NewSimulated(clock.Epoch)
	stopSampler, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		acct.Run(ticks, stopSampler)
	}()
	defer func() {
		close(stopSampler)
		<-sampled
	}()
	armed := func() {
		for {
			if d, ok := ticks.NextDeadline(); ok && d.After(ticks.Now()) {
				return
			}
			runtime.Gosched()
		}
	}
	armed()
	advanceTo := func(at time.Time) {
		crossed := at.Unix() > sim.Now().Unix()
		sim.AdvanceTo(at)
		ticks.AdvanceTo(at)
		if crossed {
			armed()
		}
	}

	srv, err := server.New(server.Config{
		Name:       "srv",
		Addr:       "srv:1",
		Net:        net,
		Clock:      sim,
		Table:      core.Config{Mode: core.ModeEager, ObjectLease: 10 * time.Second, VolumeLease: 400 * time.Millisecond},
		MsgTimeout: 50 * time.Millisecond,
		Obs:        observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"a", "b"} {
		if err := srv.AddObject("vol", core.ObjectID(o), []byte("init")); err != nil {
			t.Fatal(err)
		}
	}

	victim, err := client.Dial(net, "srv:1", client.Config{
		ID: "victim", Skew: 10 * time.Millisecond, Timeout: time.Second, Clock: sim, Obs: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	// Pre-freeze context: 2.6s of reads, one every 100ms, so the ring holds
	// a meaningful lead-up.
	for i := 0; i < 26; i++ {
		if _, err := victim.Read("vol", "a"); err != nil {
			t.Fatalf("read: %v", err)
		}
		advanceTo(sim.Now().Add(100 * time.Millisecond))
	}
	if _, _, err := srv.Write("b", []byte("warm")); err != nil {
		t.Fatalf("warm write: %v", err)
	}

	// The incident: cut the victim off while it holds leases on "a", then
	// write "a". The server must wait the victim's leases out, emitting the
	// unreachable transition; once the write has blocked on the victim, the
	// test moves the clock to each timer in turn until the write returns.
	if _, err := victim.Read("vol", "a"); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}
	net.Partition("victim", "srv")
	blocked := func() bool {
		for _, e := range ring.Snapshot() {
			if e.Type == obs.EvWriteBlocked && e.Object == "a" {
				return true
			}
		}
		return false
	}
	wrote := make(chan error, 1)
	go func() {
		_, _, err := srv.Write("a", []byte("mid-partition"))
		wrote <- err
	}()
	for done := false; !done; {
		select {
		case err := <-wrote:
			if err != nil {
				t.Fatalf("mid-partition write: %v", err)
			}
			done = true
		default:
			if d, ok := sim.NextDeadline(); ok && blocked() {
				advanceTo(d)
			}
			runtime.Gosched()
		}
	}

	tr := &health.Trigger{Cause: "manual", At: sim.Now(), Detail: "partitioned write"}
	path, err := health.WriteDump(health.DumpDir(t.TempDir()),
		health.Freeze("srv", sim.Now(), tr, ring, acct, srv.StateSource()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := health.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Trigger == nil || d.Trigger.Cause != "manual" {
		t.Fatalf("dump trigger = %+v, want the manual freeze", d.Trigger)
	}
	// At least 2s of pre-freeze context in the timeline.
	if span := d.PreTriggerSpan(); span < 2*time.Second {
		t.Errorf("pre-freeze context %v, want >= 2s (%d events)", span, len(d.Events))
	}
	// The incident itself is in the event timeline.
	var sawUnreachable, sawWrite, sawWait bool
	for _, e := range d.Events {
		switch e.Type {
		case "unreachable":
			sawUnreachable = true
		case "write-applied":
			sawWrite = true
		case "write-unblocked":
			// The partitioned write's ack wait, in its trace, the victim unacked.
			sawWait = sawWait || (e.Object == "a" && e.N == 1 && e.Trace != 0)
		}
	}
	if !sawUnreachable || !sawWrite || !sawWait {
		t.Errorf("dump timeline missing incident evidence: unreachable=%v write=%v wait=%v", sawUnreachable, sawWrite, sawWait)
	}
	// Per-second load rode along, one entry per second of the ~3s run: the
	// sampler filed each closed second as it went.
	if len(d.Seconds) < 2 {
		t.Errorf("dump has %d per-second load buckets, want one per second of the run", len(d.Seconds))
	}
	t.Logf("dump %s: %d events over %v, %d seconds, trigger %s",
		filepath.Base(path), len(d.Events), d.PreTriggerSpan(), len(d.Seconds), d.Trigger)
}
