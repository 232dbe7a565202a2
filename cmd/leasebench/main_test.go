package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-addr", "127.0.0.1:7400", "-clients", "4", "-duration", "100ms", "-write-ratio", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.addr != "127.0.0.1:7400" || o.clients != 4 || o.duration != 100*time.Millisecond || o.writeRatio != 0.5 {
		t.Errorf("options = %+v", o)
	}
	if _, err := parseFlags(nil); err == nil || !strings.Contains(err.Error(), "leased") {
		t.Errorf("missing -addr: err = %v, want one that says to start leased", err)
	}
	for _, bad := range [][]string{
		{"-clients", "0"},
		{"-duration", "0s"},
		{"-write-ratio", "1.5"},
		{"-objects", "-1"},
		// Flags of the in-process harness, gone: the target serves these.
		{"-object-lease", "1m"},
		{"-volume-lease", "5s"},
		{"-tcp"},
		{"-audit"},
		{"-trace"},
		{"-cost-out", "cost.json"},
		{"-debug-addr", "127.0.0.1:0"},
		{"-flight-dir", "dumps"},
	} {
		if _, err := parseFlags(append([]string{"-addr", "127.0.0.1:7400"}, bad...)); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
}

// startServer serves objects obj-0 … obj-<n-1> in volume "bench" over TCP
// on a loopback port, as `leased -volume bench -objects n` would, and
// returns its address.
func startServer(t *testing.T, objects int) string {
	t.Helper()
	srv, err := server.New(server.Config{
		Name:       "bench-origin",
		Addr:       "127.0.0.1:0",
		Net:        transport.TCP{},
		Table:      core.Config{ObjectLease: time.Minute, VolumeLease: 5 * time.Second, Mode: core.ModeEager},
		MsgTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("bench"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < objects; i++ {
		if err := srv.AddObject("bench", core.ObjectID(fmt.Sprintf("obj-%d", i)), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	return srv.Addr()
}

// TestExecuteSelfContained drives a lease server built in the test over TCP,
// as a running leased would be driven, with writes in the mix: every
// operation succeeds, reads are served from the clients' caches, and writes
// invalidate the other clients' leases.
func TestExecuteSelfContained(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const objects = 64
	o, err := parseFlags([]string{
		"-addr", startServer(t, objects), "-clients", "4", "-objects", fmt.Sprint(objects),
		"-duration", "300ms", "-write-ratio", "0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.errors.Load() != 0 {
		t.Errorf("%d errors during load", res.errors.Load())
	}
	if res.reads.Load() == 0 || res.writes.Load() == 0 {
		t.Errorf("reads=%d writes=%d, want both non-zero", res.reads.Load(), res.writes.Load())
	}
	if res.readLat.Count() != res.reads.Load() {
		t.Errorf("latency samples %d != reads %d", res.readLat.Count(), res.reads.Load())
	}
	if res.localReads == 0 {
		t.Error("no locally served reads; caching is broken")
	}
	if res.invalidations == 0 {
		t.Error("no invalidations received; writes did not reach the other clients' leases")
	}
	var out strings.Builder
	if err := res.report(&out, o); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"throughput:", "read ", "write ", "cache:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}
}

// TestExecuteSelfContainedTCP runs a read-only mix over TCP: reads succeed
// and no write is issued, so no client's lease is invalidated.
func TestExecuteSelfContainedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	const objects = 4
	o, err := parseFlags([]string{
		"-addr", startServer(t, objects), "-clients", "2", "-objects", fmt.Sprint(objects),
		"-duration", "200ms", "-write-ratio", "0",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.reads.Load() == 0 || res.errors.Load() != 0 {
		t.Errorf("reads=%d errors=%d", res.reads.Load(), res.errors.Load())
	}
	if res.writes.Load() != 0 || res.invalidations != 0 {
		t.Errorf("writes=%d invalidations=%d in a read-only run", res.writes.Load(), res.invalidations)
	}
}
