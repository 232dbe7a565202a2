package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/health"
	"repro/internal/obs"
)

// liveNode stands up one debug endpoint the way a daemon does: a registry,
// a flight recorder and its dumper, and obs.Serve with
// /debug/flightrecorder mounted; series registers whatever else the node
// exports.
func liveNode(t *testing.T, name string, series func(*obs.Registry)) (string, *health.Dumper) {
	t.Helper()
	reg := obs.NewRegistry()
	f := health.NewFlightRecorder(name, 1024, time.Minute)
	d := health.NewDumper(health.Options{
		Node:          name,
		Flight:        f,
		DumpDir:       t.TempDir(),
		StalenessBurn: func() float64 { return 0.5 },
	})
	d.Register(reg)
	t.Cleanup(d.Close)
	if series != nil {
		series(reg)
	}
	f.Observe(obs.Event{Type: obs.EvWriteApplied, At: time.Now(), Node: name, Object: "o", Volume: "v"})

	srv, err := obs.Serve("127.0.0.1:0", reg, nil,
		obs.Route{Path: "/debug/flightrecorder", Handler: health.FlightHandler(d)},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr(), d
}

func TestFleetTableFromTwoLiveEndpoints(t *testing.T) {
	// Node "alpha" has an invalidation backlog and one dump; "beta" is
	// healthy.
	epA, dumpsA := liveNode(t, "alpha", func(reg *obs.Registry) {
		reg.GaugeFunc(`lease_server_pending_invalidations{server="alpha"}`, func() float64 { return 1500 })
	})
	if _, err := dumpsA.ForceDump("test"); err != nil {
		t.Fatal(err)
	}
	epB, _ := liveNode(t, "beta", nil)

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
	// ENDPOINT NODE STATUS FIRING DUMPS BURN LEASES EXPIRING SERIES MSGS/S
	// BYTES/S. Nodes that export neither lease_state_* gauges nor
	// lease_cost_* counters show "-" in those columns, not zeroes.
	for ep, want := range map[string]string{
		epA: "alpha firing inval-backlog 1 0.50 - - 3 - -",
		epB: "beta ok - 0 0.50 - - 2 - -",
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
	if len(fields) != 11 {
		t.Fatalf("epsilon row has %d columns, want 11: %q", len(fields), line)
	}
	msgs, err := strconv.ParseFloat(fields[9], 64)
	if err != nil || msgs <= 0 {
		t.Errorf("MSGS/S = %q, want a positive rate (err %v)", fields[9], err)
	}
	bytesRate, err := strconv.ParseFloat(fields[10], 64)
	if err != nil || bytesRate <= 0 {
		t.Errorf("BYTES/S = %q, want a positive rate (err %v)", fields[10], err)
	}
}

func TestFetchAndPrettyPrintDump(t *testing.T) {
	ep, dumps := liveNode(t, "gamma", nil)
	if _, err := dumps.ForceDump("pulled for the test"); err != nil {
		t.Fatal(err)
	}

	// -dumps lists the file.
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-dumps", ep}); code != 0 {
		t.Fatalf("-dumps exit %d: %s", code, &errw)
	}
	if !strings.Contains(out.String(), "flight-gamma-manual-") {
		t.Fatalf("-dumps listing:\n%s", &out)
	}

	// -dump latest pretty-prints trigger evidence and the timeline.
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-dump", "latest", ep}); code != 0 {
		t.Fatalf("-dump exit %d: %s", code, &errw)
	}
	pretty := out.String()
	for _, want := range []string{
		"node:    gamma",
		"trigger: manual: pulled for the test",
		"write-applied",
		"timeline",
	} {
		if !strings.Contains(pretty, want) {
			t.Errorf("pretty dump missing %q:\n%s", want, pretty)
		}
	}

	// -dump with -raw yields parseable JSON.
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-raw", "-dump", "latest", ep}); code != 0 {
		t.Fatalf("-raw -dump exit %d: %s", code, &errw)
	}
	d, err := health.ParseDump(&out)
	if err != nil {
		t.Fatal(err)
	}
	if d.Node != "gamma" || d.Trigger == nil {
		t.Fatalf("raw dump = %+v", d)
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

func TestFreezeEndpoint(t *testing.T) {
	ep, dumps := liveNode(t, "delta", nil)
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-freeze", ep}); code != 0 {
		t.Fatalf("-freeze exit %d: %s", code, &errw)
	}
	if len(dumps.Files()) != 1 {
		t.Fatal("freeze did not write a dump")
	}
	if !strings.Contains(out.String(), "froze flight recorder:") {
		t.Errorf("freeze output: %q", out.String())
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
