package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/daemon"
	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// liveNode stands up one debug endpoint the way a daemon does: a registry
// holding a series labelled with the node's name, plus whatever series
// registers, served by obs.Serve.
func liveNode(t *testing.T, name string, series func(*obs.Registry)) string {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Counter(fmt.Sprintf("lease_reconnects_total{node=%q}", name))
	if series != nil {
		series(reg)
	}
	srv, err := obs.Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

func TestFleetTableFromTwoLiveEndpoints(t *testing.T) {
	// Node "alpha" has an invalidation backlog; "beta" is healthy.
	epA := liveNode(t, "alpha", func(reg *obs.Registry) {
		reg.GaugeFunc(`lease_server_pending_invalidations{server="alpha"}`, func() float64 { return 1500 })
	})
	epB := liveNode(t, "beta", nil)

	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"-rate-window", "1ms", epA, epB})
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (firing fleet)\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if fields := strings.Fields(line); len(fields) > 0 {
			rows[fields[0]] = fields
		}
	}
	// ENDPOINT NODE STATUS FIRING LEASES EXPIRING SERIES MSGS/S BYTES/S.
	// Nodes that export neither lease_state_* gauges nor lease_cost_*
	// counters show "-" in those columns, not zeroes.
	for ep, want := range map[string]string{
		epA: "alpha firing inval-backlog - - 2 - -",
		epB: "beta ok - - - 1 - -",
	} {
		if got := strings.Join(rows[ep][1:], " "); got != want {
			t.Errorf("row %s = %q, want %q\n%s", ep, got, want, &out)
		}
	}
}

// costNode serves a minimal debug endpoint whose lease_cost_* counters
// advance on every /metrics scrape, so the second rate sample always sees
// a positive delta.
func costNode(t *testing.T, name string) string {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		n := calls.Add(1)
		fmt.Fprintf(w, "lease_cost_messages_total{node=%q,dir=\"sent\"} %d\n", name, n*50)
		fmt.Fprintf(w, "lease_cost_messages_total{node=%q,dir=\"recv\"} %d\n", name, n*50)
		fmt.Fprintf(w, "lease_cost_bytes_total{node=%q,dir=\"sent\"} %d\n", name, n*4096)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFleetRateColumnsFromCostCounters(t *testing.T) {
	ep := costNode(t, "epsilon")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-rate-window", "50ms", ep}); code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "epsilon") {
			line = l
		}
	}
	fields := strings.Fields(line)
	if len(fields) != 9 {
		t.Fatalf("epsilon row has %d columns, want 9: %q", len(fields), line)
	}
	msgs, err := strconv.ParseFloat(fields[7], 64)
	if err != nil || msgs <= 0 {
		t.Errorf("MSGS/S = %q, want a positive rate (err %v)", fields[7], err)
	}
	bytesRate, err := strconv.ParseFloat(fields[8], 64)
	if err != nil || bytesRate <= 0 {
		t.Errorf("BYTES/S = %q, want a positive rate (err %v)", fields[8], err)
	}
}

// TestFetchAndPrettyPrintDump: -dump reads a dump file from disk and
// pretty-prints its trigger and timeline.
func TestFetchAndPrettyPrintDump(t *testing.T) {
	at := time.Unix(1000, 0)
	path, err := health.WriteDump(t.TempDir(), health.Dump{
		Node: "gamma", WrittenAt: at,
		Trigger: &health.Trigger{Cause: "manual", At: at, Detail: "pulled for the test"},
		Events:  []obs.EventJSON{{Type: "write-applied", At: at.Add(-time.Second), Object: "o"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-dump", path}); code != 0 {
		t.Fatalf("-dump exit %d: %s", code, &errw)
	}
	pretty := out.String()
	for _, want := range []string{
		"flight dump " + filepath.Base(path),
		"node:    gamma",
		"trigger: manual: pulled for the test",
		"context: 1s before the trigger",
		"write-applied",
		"timeline",
	} {
		if !strings.Contains(pretty, want) {
			t.Errorf("pretty dump missing %q:\n%s", want, pretty)
		}
	}

	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-dump", filepath.Join(t.TempDir(), "missing.json")}); code != 1 {
		t.Errorf("-dump of a missing file exit %d, want 1", code)
	}
}

// TestPrintDumpWithSpans: a dump written before spans became events, with
// its separate "spans" array, still prints: its events by type and its
// timeline.
func TestPrintDumpWithSpans(t *testing.T) {
	d, err := health.ReadDump("../../internal/health/testdata/flight-with-spans.json")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printDump(&out, "flight-with-spans.json", d, 0)
	for _, want := range []string{
		"node:    srv",
		"held:    8 events, 1 load seconds",
		"write-unblocked",
		"timeline",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("dump view missing %q:\n%s", want, &out)
		}
	}
}

// TestPrintDumpPerSecondLoad: the dump view prints each second's messages
// and busiest kinds from the node's frame counts, and its writes and grants
// from the dump's own events.
func TestPrintDumpPerSecondLoad(t *testing.T) {
	at := time.Unix(1000, 0)
	d := health.Dump{
		Node: "srv",
		Events: []obs.EventJSON{
			{Type: "write-applied", At: at},
			{Type: "obj-lease-grant", At: at.Add(100 * time.Millisecond)},
			{Type: "vol-lease-grant", At: at.Add(200 * time.Millisecond)},
			{Type: "inval-sent", At: at.Add(300 * time.Millisecond)},
			{Type: "obj-lease-grant", At: at.Add(time.Second)},
		},
		Seconds: []cost.Second{
			{Unix: 1000, Msgs: 10, ByKind: map[string]int64{"Invalidate": 4, "AckInvalidate": 4, "ObjLease": 1, "VolLease": 1}},
			{Unix: 1001, Msgs: 2, ByKind: map[string]int64{"ReqObjLease": 1, "ObjLease": 1}},
		},
	}
	var out bytes.Buffer
	printDump(&out, "flight-srv-manual-1.json", d, 0)
	want := map[string]string{
		"00:16:40": "msgs=10 writes=1 grants=2 AckInvalidate=4 Invalidate=4 ObjLease=1",
		"00:16:41": "msgs=2 writes=0 grants=1 ObjLease=1 ReqObjLease=1",
	}
	for _, line := range strings.Split(out.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && want[fields[0]] != "" {
			if got := strings.Join(fields[1:], " "); got != want[fields[0]] {
				t.Errorf("second %s: %q, want %q", fields[0], got, want[fields[0]])
			}
			delete(want, fields[0])
		}
	}
	if len(want) != 0 {
		t.Errorf("per-second rows missing for %v:\n%s", want, &out)
	}
}

// TestFreezeEndpoint: -freeze against a live server's debug address — its
// stack built by internal/daemon, as leased builds it — writes a dump into
// $FLIGHT_DUMP_DIR holding that node's events, its load and its lease table.
func TestFreezeEndpoint(t *testing.T) {
	table := core.Config{ObjectLease: time.Minute, VolumeLease: 10 * time.Second, Mode: core.ModeEager}
	stack := daemon.New(daemon.Options{Node: "delta", DebugAddr: "127.0.0.1:0", Trace: 64, Table: table})
	t.Cleanup(stack.Close)
	net := transport.NewMemory()
	net.Taps = stack.Taps
	srv, err := server.New(server.Config{Name: "delta", Addr: "delta:1", Net: net, Table: table,
		MsgTimeout: 100 * time.Millisecond, Obs: stack.Obs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddObject("vol", "a", []byte("a v1")); err != nil {
		t.Fatal(err)
	}
	if err := stack.Start(srv.StateSource()); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(net, "delta:1", client.Config{ID: "reader"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Read("vol", "a"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	t.Setenv("FLIGHT_DUMP_DIR", dir)
	ep := stack.DebugAddr()
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-freeze", ep}); code != 0 {
		t.Fatalf("-freeze exit %d: %s", code, &errw)
	}
	path, ok := strings.CutPrefix(strings.TrimSpace(out.String()), "froze "+ep+": ")
	if !ok || filepath.Dir(path) != dir {
		t.Fatalf("freeze output %q, want the path of a dump in %s", out.String(), dir)
	}
	d, err := health.ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != "delta" || d.Trigger == nil || d.Trigger.Cause != "manual" || !d.Trigger.At.Equal(d.WrittenAt) {
		t.Errorf("dump node %q, trigger %+v written %v; want delta's manual freeze", d.Node, d.Trigger, d.WrittenAt)
	}
	kinds := map[string]bool{}
	for _, e := range d.Events {
		kinds[e.Type] = kinds[e.Type] || e.Node == "delta"
	}
	if !kinds["connect"] || !kinds["obj-lease-grant"] {
		t.Errorf("dump events %v, want delta's connect and object grant", kinds)
	}
	if len(d.Seconds) == 0 || d.Seconds[len(d.Seconds)-1].Msgs == 0 {
		t.Errorf("dump seconds %+v, want the read's load", d.Seconds)
	}
	if ls := d.LeaseState; ls == nil || ls.Server == nil || len(ls.Server.Volumes) != 1 || len(ls.Server.Volumes[0].VolumeLeases) == 0 {
		t.Errorf("dump lease state %+v, want delta's table with the reader's lease", d.LeaseState)
	}

	// -dump prints it back: the events, the load and the lease table.
	out.Reset()
	if code := run(&out, &errw, []string{"-dump", path}); code != 0 {
		t.Fatalf("-dump exit %d: %s", code, &errw)
	}
	for _, want := range []string{"obj-lease-grant", "per-second load", "leases:  server delta", "volume vol epoch"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-dump output missing %q:\n%s", want, &out)
		}
	}
}

func TestUnreachableEndpointExitsNonZero(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-timeout", "200ms", "127.0.0.1:1"}); code != 1 {
		t.Fatalf("exit = %d, want 1\n%s", code, &errw)
	}
	if !strings.Contains(out.String(), "unreachable") {
		t.Errorf("table missing unreachable row:\n%s", &out)
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, nil); code != 1 {
		t.Fatalf("no-args exit = %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "endpoint") {
		t.Errorf("usage message: %q", errw.String())
	}
}
