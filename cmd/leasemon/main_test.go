package main

import (
	"bytes"
	"encoding/json"
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
// a flight recorder, a health engine, and obs.Serve with the health routes
// mounted.
func liveNode(t *testing.T, name string, detectors ...health.Detector) (string, *health.Engine) {
	t.Helper()
	reg := obs.NewRegistry()
	f := health.NewFlightRecorder(name, 1024, time.Minute)
	e := health.NewEngine(health.Options{
		Node:          name,
		Flight:        f,
		DumpDir:       t.TempDir(),
		Tick:          5 * time.Millisecond,
		Tail:          5 * time.Millisecond,
		StalenessBurn: func() float64 { return 0.5 },
	}, detectors...)
	e.Register(reg)
	f.Observe(obs.Event{Type: obs.EvWriteApplied, At: time.Now(), Node: name, Object: "o", Volume: "v"})
	e.Start()
	t.Cleanup(e.Close)

	srv, err := obs.Serve("127.0.0.1:0", reg, nil,
		obs.Route{Path: "/debug/health", Handler: health.Handler(e)},
		obs.Route{Path: "/debug/flightrecorder", Handler: health.FlightHandler(e)},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr(), e
}

func TestFleetTableFromTwoLiveEndpoints(t *testing.T) {
	// Node "alpha" has a detector that always fires; "beta" is healthy.
	epA, engA := liveNode(t, "alpha",
		health.NewThresholdDetector(health.DetBacklog, 1, func() float64 { return 5 }))
	epB, _ := liveNode(t, "beta")

	// Wait for alpha's engine to trigger and persist a dump.
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep := engA.Snapshot()
		if rep.Status == "firing" && rep.DumpsWritten >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha never fired: %+v", rep)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{epA, epB})
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (firing fleet)\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	table := out.String()
	for _, want := range []string{"ENDPOINT", "alpha", "beta", "firing", "ok", health.DetBacklog, epA, epB} {
		if !strings.Contains(table, want) {
			t.Errorf("fleet table missing %q:\n%s", want, table)
		}
	}
	// The SERIES column proves /metrics was scraped: alpha exports
	// lease_health_* series.
	alphaLine := ""
	for _, line := range strings.Split(table, "\n") {
		if strings.Contains(line, "alpha") {
			alphaLine = line
		}
	}
	fields := strings.Fields(alphaLine)
	if len(fields) != 12 || fields[9] == "0" {
		t.Errorf("alpha row did not report scraped lease_ series: %q", alphaLine)
	}
	// Health-only nodes export neither lease_state_* gauges nor
	// lease_cost_* counters: those columns degrade to "-", not zeroes.
	if len(fields) == 12 && (fields[7] != "-" || fields[8] != "-" || fields[10] != "-" || fields[11] != "-") {
		t.Errorf("alpha row invented state or cost values without the series: %q", alphaLine)
	}
	if !strings.Contains(alphaLine, "0.50") {
		t.Errorf("alpha row missing staleness burn 0.50: %q", alphaLine)
	}
}

// costNode serves a minimal debug endpoint whose lease_cost_* counters
// advance on every /metrics scrape, so the second rate sample always sees
// a positive delta.
func costNode(t *testing.T, name string) string {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(health.Report{Node: name, Status: "ok"})
	})
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
	if len(fields) != 12 {
		t.Fatalf("epsilon row has %d columns, want 12: %q", len(fields), line)
	}
	msgs, err := strconv.ParseFloat(fields[10], 64)
	if err != nil || msgs <= 0 {
		t.Errorf("MSGS/S = %q, want a positive rate (err %v)", fields[10], err)
	}
	bytesRate, err := strconv.ParseFloat(fields[11], 64)
	if err != nil || bytesRate <= 0 {
		t.Errorf("BYTES/S = %q, want a positive rate (err %v)", fields[11], err)
	}
}

func TestFetchAndPrettyPrintDump(t *testing.T) {
	ep, eng := liveNode(t, "gamma",
		health.NewThresholdDetector(health.DetBacklog, 1, func() float64 { return 9 }))
	deadline := time.Now().Add(2 * time.Second)
	for eng.Snapshot().DumpsWritten < 1 {
		if time.Now().After(deadline) {
			t.Fatal("gamma never dumped")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// -dumps lists the file.
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-dumps", ep}); code != 0 {
		t.Fatalf("-dumps exit %d: %s", code, &errw)
	}
	if !strings.Contains(out.String(), "flight-gamma-"+health.DetBacklog) {
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
		"trigger: " + health.DetBacklog,
		"observed 9, threshold 1",
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
	ep, eng := liveNode(t, "delta")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-freeze", ep}); code != 0 {
		t.Fatalf("-freeze exit %d: %s", code, &errw)
	}
	if eng.Snapshot().DumpsWritten != 1 {
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
