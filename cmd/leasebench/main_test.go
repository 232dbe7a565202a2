package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/health"
	"repro/internal/obs"
)

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-clients", "4", "-duration", "100ms", "-write-ratio", "0.5"})
	if err != nil {
		t.Fatal(err)
	}
	if o.clients != 4 || o.duration != 100*time.Millisecond || o.writeRatio != 0.5 {
		t.Errorf("options = %+v", o)
	}
	for _, bad := range [][]string{
		{"-clients", "0"},
		{"-duration", "0s"},
		{"-write-ratio", "1.5"},
		{"-objects", "-1"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("flags %v accepted", bad)
		}
	}
}

func TestExecuteSelfContained(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	o, err := parseFlags([]string{
		"-clients", "4", "-objects", "8", "-duration", "300ms", "-write-ratio", "0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.reads.Load() == 0 {
		t.Error("no reads completed")
	}
	if res.writes.Load() == 0 {
		t.Error("no writes completed")
	}
	if res.errors.Load() != 0 {
		t.Errorf("%d errors during load", res.errors.Load())
	}
	if res.readLat.Count() != res.reads.Load() {
		t.Errorf("latency samples %d != reads %d", res.readLat.Count(), res.reads.Load())
	}
	if res.serverStats == nil {
		t.Error("self-contained run missing server stats")
	}
	// The workload is read-dominated over a warm cache: most reads must be
	// local.
	if res.localReads == 0 {
		t.Error("no locally served reads; caching is broken")
	}
}

func TestExecuteSelfContainedTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	o, err := parseFlags([]string{
		"-tcp", "-clients", "2", "-objects", "4", "-duration", "200ms", "-write-ratio", "0",
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
}

func TestExecuteTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	o, err := parseFlags([]string{
		"-trace", "-clients", "4", "-objects", "8", "-duration", "400ms", "-write-ratio", "0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.writes.Load() == 0 {
		t.Fatal("no writes completed")
	}
	if res.obs.Obs.SpanRec() == nil || res.obs.Load == nil {
		t.Fatal("-trace did not wire the span recorder / load timeline")
	}

	// Every traced write yields a causal chain: a client-write span
	// parenting a server root whose sequential children (serialize, ack
	// wait) fit inside the root's duration.
	spans := res.obs.Obs.SpanRec().Snapshot()
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var roots, chained int
	for _, s := range spans {
		if s.Kind != obs.SpanWrite {
			continue
		}
		roots++
		if p, ok := byID[s.Parent]; ok && p.Kind == obs.SpanClientWrite && p.Trace == s.Trace {
			chained++
		}
		var seq time.Duration
		for _, c := range spans {
			if c.Parent == s.ID && (c.Kind == obs.SpanSerialize || c.Kind == obs.SpanAckWait) {
				if c.Trace != s.Trace {
					t.Errorf("child %s trace %d != root trace %d", c.Kind, c.Trace, s.Trace)
				}
				seq += c.Dur
			}
		}
		if seq > s.Dur {
			t.Errorf("write %s: sequential children %v exceed root %v", s.Object, seq, s.Dur)
		}
	}
	if roots == 0 {
		t.Error("no server write root spans recorded")
	}
	// The ring may have evicted some client spans, but with 8192 slots and
	// a sub-second run every root's parent should still be present.
	if chained == 0 {
		t.Error("no write root is chained to a client-write span")
	}

	// The run itself is the burst: the timeline must show busy seconds and
	// committed writes.
	b := res.obs.Load.BurstWindow(0)
	if b.Peak == 0 || b.BusySeconds == 0 {
		t.Errorf("load burst = %+v", b)
	}

	// And the report renders the trace/load summary lines.
	tmp, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := res.report(tmp, o); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace:", "server write roots", "load: peak"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestExecuteAuditedWiresHealth(t *testing.T) {
	if testing.Short() {
		t.Skip("load test skipped in -short mode")
	}
	dir := t.TempDir()
	o, err := parseFlags([]string{
		"-audit", "-flight-dir", dir,
		"-clients", "2", "-objects", "4", "-duration", "300ms", "-write-ratio", "0.1",
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.obs.Health == nil {
		t.Fatal("-audit did not wire the health engine")
	}
	rep := res.obs.Health.Snapshot()
	if rep.Status != "ok" || rep.DumpsWritten != 0 {
		t.Errorf("clean run health = %+v", rep)
	}
	tmp, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := res.report(tmp, o); err != nil {
		t.Fatalf("clean audited run reported error: %v", err)
	}
}

// TestAuditViolationLeavesFlightDump crafts an invariant violation (an epoch
// moving backwards) and asserts the failing report (1) returns a non-zero
// error, the satellite exit-code contract, and (2) leaves a parseable flight
// dump behind.
func TestAuditViolationLeavesFlightDump(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("FLIGHT_DUMP_DIR", "") // the dump must land in dir
	stack := daemon.New(daemon.Options{
		Node:      "bench",
		Table:     core.Config{ObjectLease: time.Minute, VolumeLease: 5 * time.Second, Mode: core.ModeEager},
		Audit:     true,
		Flight:    64,
		FlightDir: dir,
	})
	now := time.Now()
	for _, epoch := range []core.Epoch{5, 3} { // 5 then 3: epoch monotonicity breach
		stack.Obs.Emit(obs.Event{Type: obs.EvVolLeaseGrant, At: now, Node: "srv", Client: "c", Volume: "v", Epoch: epoch})
	}
	if len(stack.Audit.Violations()) == 0 {
		t.Fatal("crafted event stream recorded no violation")
	}

	res := &result{elapsed: time.Second, obs: stack}
	tmp, err := os.CreateTemp(t.TempDir(), "report")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	if err := res.report(tmp, options{duration: time.Second}); err == nil {
		t.Fatal("violating run reported success")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-bench-*.json"))
	if len(files) != 1 {
		t.Fatalf("violating run left %d dumps, want 1", len(files))
	}
	d, err := health.ReadDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 2 || d.Trigger == nil {
		t.Fatalf("dump = %d events, trigger %+v", len(d.Events), d.Trigger)
	}
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "audit: flight dump ") {
		t.Errorf("report does not point at the dump:\n%s", out)
	}
}
