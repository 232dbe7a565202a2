package health_test

// The live acceptance test of the flight recorder: a real server over the
// in-memory transport, background read/write traffic for several seconds,
// then a partition cutting a lease-holding client off mid-write. The
// server waits the write out, marks the client unreachable, the
// unreachable-growth detector fires, and the engine freezes the flight
// ring into a dump file. The test then parses the dump like an operator
// would and asserts it holds (1) at least 2s of pre-trigger context, (2) the
// triggering anomaly with detector name, threshold, and observed value, and
// (3) the run's load, second by second.

import (
	"path/filepath"
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
	if testing.Short() {
		t.Skip("chaos test skipped in -short mode")
	}

	net := transport.NewMemory()
	observer := &obs.Observer{Metrics: obs.NewRegistry()}
	spans := obs.NewSpanRecorder(4096)
	observer.Spans = spans

	flight := health.NewFlightRecorder("srv", 16384, 30*time.Second)
	flight.AttachSpans(spans)
	acct := cost.New("srv", time.Now)
	flight.AttachCost(acct)
	stopSampler, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		acct.Run(clock.Real{}, stopSampler)
	}()
	defer func() {
		close(stopSampler)
		<-sampled
	}()

	dumpDir := health.DumpDir(t.TempDir())
	engine := health.NewEngine(health.Options{
		Node:    "srv",
		Flight:  flight,
		DumpDir: dumpDir,
		Tick:    100 * time.Millisecond,
		Tail:    500 * time.Millisecond,
		Logf:    t.Logf,
	}, health.DefaultDetectors(health.DetectorConfig{
		UnreachableThreshold: 1,
		UnreachableWindow:    10,
	})...)
	observer.Tracer = obs.NewTracer(flight, engine)
	engine.Start()
	defer engine.Close()

	net.Taps = []transport.Tap{acct}
	srv, err := server.New(server.Config{
		Name:       "srv",
		Addr:       "srv:1",
		Net:        net,
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
		ID: "victim", Skew: 10 * time.Millisecond, Timeout: time.Second, Obs: observer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()

	// Pre-trigger context: ~2.6s of reads and writes so the ring holds a
	// meaningful lead-up.
	start := time.Now()
	for time.Since(start) < 2600*time.Millisecond {
		if _, err := victim.Read("vol", "a"); err != nil {
			t.Fatalf("read: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, _, err := srv.Write("b", []byte("warm")); err != nil {
		t.Fatalf("warm write: %v", err)
	}

	// The incident: cut the victim off while it holds leases on "a", then
	// write "a". The server must wait the victim's leases out, emitting the
	// unreachable transition the detector is armed for.
	if _, err := victim.Read("vol", "a"); err != nil {
		t.Fatalf("pre-partition read: %v", err)
	}
	net.Partition("victim", "srv")
	if _, _, err := srv.Write("a", []byte("mid-partition")); err != nil {
		t.Fatalf("mid-partition write: %v", err)
	}

	// Wait for the trigger + tail + dump write.
	deadline := time.Now().Add(5 * time.Second)
	var files []string
	for time.Now().Before(deadline) {
		files, _ = filepath.Glob(filepath.Join(dumpDir, "flight-srv-*.json"))
		if len(files) > 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if len(files) == 0 {
		t.Fatalf("no flight dump written to %s; report: %+v", dumpDir, engine.Snapshot())
	}

	d, err := health.ReadDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// The triggering anomaly, with its evidence.
	if d.Trigger == nil {
		t.Fatal("dump has no trigger")
	}
	if d.Trigger.Detector != health.DetUnreachable {
		t.Errorf("trigger detector = %q, want %q", d.Trigger.Detector, health.DetUnreachable)
	}
	if d.Trigger.Threshold != 1 || d.Trigger.Observed < 1 {
		t.Errorf("trigger evidence threshold=%g observed=%g", d.Trigger.Threshold, d.Trigger.Observed)
	}
	// At least 2s of pre-trigger context in the timeline.
	if span := d.PreTriggerSpan(); span < 2*time.Second {
		t.Errorf("pre-trigger context %v, want >= 2s (%d events)", span, len(d.Events))
	}
	// The anomaly itself is in the event timeline.
	var sawUnreachable, sawWrite bool
	for _, e := range d.Events {
		switch e.Type {
		case "unreachable":
			sawUnreachable = true
		case "write-applied":
			sawWrite = true
		}
	}
	if !sawUnreachable || !sawWrite {
		t.Errorf("dump timeline missing anomaly evidence: unreachable=%v write=%v", sawUnreachable, sawWrite)
	}
	// Per-second load rode along, one entry per second of the ~3s run: the
	// sampler filed each closed second as it went.
	if len(d.Seconds) < 2 {
		t.Errorf("dump has %d per-second load buckets, want one per second of the run", len(d.Seconds))
	}
	t.Logf("dump %s: %d events over %v, %d spans, %d seconds, trigger %s",
		filepath.Base(files[0]), len(d.Events), d.PreTriggerSpan(), len(d.Spans), len(d.Seconds), d.Trigger)
}
