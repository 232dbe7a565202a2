package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/transport"
)

// TestDebugEndpointsUnderWorkload starts a fully wired daemon (TCP lease
// server + debug HTTP server), drives it with a scripted client workload,
// and asserts that the scraped /metrics reflects the protocol activity: lease grants, invalidations, write-ack waits, and the
// tap's one count of the wire traffic.
func TestDebugEndpointsUnderWorkload(t *testing.T) {
	in, err := start(options{
		addr:       "127.0.0.1:0",
		volume:     "itest",
		nObjects:   8,
		objLease:   time.Minute,
		volLease:   10 * time.Second,
		mode:       "eager",
		msgTimeout: 200 * time.Millisecond,
		obs:        daemon.Options{DebugAddr: "127.0.0.1:0", Trace: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	// Scripted workload over real TCP: two readers cache an object, then a
	// writer updates it, forcing an invalidate/ack round.
	readers := make([]*client.Client, 2)
	for i := range readers {
		cl, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{
			ID: core.ClientID(fmt.Sprintf("reader-%d", i)),
		})
		if err != nil {
			t.Fatalf("dial reader %d: %v", i, err)
		}
		defer cl.Close()
		readers[i] = cl
		for j := 0; j < 4; j++ {
			if _, err := cl.Read("itest", "obj-1"); err != nil {
				t.Fatalf("reader %d read %d: %v", i, j, err)
			}
		}
	}
	writer, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{ID: "writer"})
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, _, err := writer.Write("obj-1", []byte("new contents")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Re-read after the invalidation so a server round trip is recorded.
	if _, err := readers[0].Read("itest", "obj-1"); err != nil {
		t.Fatalf("post-write read: %v", err)
	}

	base := "http://" + in.obs.DebugAddr()

	prom := httpGet(t, base+"/metrics")
	wantSeries := []string{
		`lease_obj_grants_total{server="itest"}`,
		`lease_vol_grants_total{server="itest"}`,
		`lease_invalidations_sent_total{server="itest"}`,
		`lease_invalidation_acks_total{server="itest"}`,
		`lease_server_writes_total{server="itest"}`,
		`lease_write_ack_wait_seconds_count{server="itest"`,
		`lease_cost_messages_total{node="itest",dir="sent"}`,
		`lease_cost_frames_total{node="itest",kind="Invalidate",dir="sent"}`,
	}
	for _, s := range wantSeries {
		if !strings.Contains(prom, s) {
			t.Errorf("/metrics missing series %q", s)
		}
	}

	vars := parseProm(prom)
	atLeast := func(name string, min float64) {
		t.Helper()
		v, ok := vars[name]
		if !ok {
			t.Errorf("/metrics missing %q", name)
			return
		}
		if v < min {
			t.Errorf("%s = %v, want >= %v", name, v, min)
		}
	}
	// Two readers fetched obj-1 plus one post-write refetch: >= 3 object
	// grants. Each reader took a volume lease; the writer's invalidation
	// round reached both readers and both acked; the ack-wait summary
	// recorded the write's wait.
	atLeast(`lease_obj_grants_total{server="itest"}`, 3)
	atLeast(`lease_vol_grants_total{server="itest"}`, 2)
	atLeast(`lease_invalidations_sent_total{server="itest"}`, 2)
	atLeast(`lease_invalidation_acks_total{server="itest"}`, 2)
	atLeast(`lease_server_writes_total{server="itest"}`, 1)
	atLeast(`lease_server_connections{server="itest"}`, 3)
	atLeast(`lease_write_ack_wait_seconds_count{server="itest"}`, 1)

	// The exported totals are the cost accounting's own, and inbound frames
	// are charged their bytes.
	totals := in.obs.Cost.Totals()
	if got := vars[`lease_cost_messages_total{node="itest",dir="recv"}`]; got != float64(totals.MessagesRecv) {
		t.Errorf("lease_cost_messages_total recv = %v, accounting says %d", got, totals.MessagesRecv)
	}
	if totals.MessagesRecv == 0 || totals.BytesRecv == 0 {
		t.Errorf("inbound traffic not counted: %+v", totals)
	}

	// Protocol events made it to the ring.
	events := httpGet(t, base+"/debug/events")
	for _, ev := range []string{"obj-lease-grant", "vol-lease-grant", "inval-sent", "inval-acked", "write-unblocked"} {
		if !strings.Contains(events, ev) {
			t.Errorf("/debug/events missing %q event", ev)
		}
	}

	// pprof index answers.
	if body := httpGet(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// parseProm reads Prometheus text exposition into full series name -> value.
func parseProm(body string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body)
}

// TestTraceEndpointsUnderWorkload drives a write over TCP with the event
// ring on, and checks two debug endpoints: /debug/events?trace= must return
// the write's causal records (the server's write record and the blocked,
// sent and unblocked records it parents), /debug/cost the post-write
// message burst, second by second.
func TestTraceEndpointsUnderWorkload(t *testing.T) {
	in, err := start(options{
		addr:       "127.0.0.1:0",
		volume:     "ttest",
		nObjects:   4,
		objLease:   time.Minute,
		volLease:   10 * time.Second,
		mode:       "eager",
		msgTimeout: 200 * time.Millisecond,
		obs:        daemon.Options{DebugAddr: "127.0.0.1:0", Trace: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()

	reader, err := client.Dial(transport.TCP{}, in.srv.Addr(), client.Config{
		ID: "t-reader", Obs: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	if _, err := reader.Read("ttest", "obj-1"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.srv.Write("obj-1", []byte("traced contents")); err != nil {
		t.Fatal(err)
	}

	base := "http://" + in.obs.DebugAddr()

	// The write's own record names its trace; ?trace= returns the records it
	// parents. The inval-sent record is emitted by the connection's flusher
	// once its send returns, which may be after Write has, so poll for the
	// four types instead of reading once.
	type record struct {
		Type   string `json:"type"`
		Trace  uint64 `json:"trace"`
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
	}
	records := func(query string) []record {
		var out []record
		for _, line := range strings.Split(strings.TrimSpace(httpGet(t, base+"/debug/events"+query)), "\n") {
			var r record
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad event line %q: %v", line, err)
			}
			out = append(out, r)
		}
		return out
	}
	roots := records("?type=write")
	if len(roots) != 1 || roots[0].Type != "write" || roots[0].Trace == 0 {
		t.Fatalf("?type=write = %+v, want the one write record", roots)
	}
	root := roots[0]
	want := []string{"write", "write-blocked", "inval-sent", "write-unblocked"}
	kinds := map[string]int{}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		clear(kinds)
		for _, r := range records(fmt.Sprintf("?trace=%d", root.Trace)) {
			if r.Trace != root.Trace {
				t.Fatalf("?trace=%d returned %+v", root.Trace, r)
			}
			if r.Type != "write" && r.Parent != root.Span {
				t.Errorf("%s record parent = %d, want the write's %d", r.Type, r.Parent, root.Span)
			}
			kinds[r.Type]++
		}
		missing := ""
		for _, k := range want {
			if kinds[k] == 0 {
				missing = k
			}
		}
		if missing == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/debug/events?trace=%d still missing %q after 5s (got %v)", root.Trace, missing, kinds)
		}
	}

	// /debug/cost shows the burst: at least one busy second, carrying the
	// write's invalidation.
	var dump struct {
		Node    string `json:"node"`
		Seconds []struct {
			Msgs   int64            `json:"msgs"`
			ByKind map[string]int64 `json:"by_kind"`
		} `json:"seconds"`
		Burst struct {
			Peak int64 `json:"peak_mps"`
		} `json:"burst"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, base+"/debug/cost")), &dump); err != nil {
		t.Fatalf("/debug/cost is not JSON: %v", err)
	}
	if dump.Node != "ttest" || len(dump.Seconds) == 0 || dump.Burst.Peak == 0 {
		t.Errorf("/debug/cost dump = %+v", dump)
	}
	var invalidates int64
	for _, s := range dump.Seconds {
		invalidates += s.ByKind["Invalidate"]
	}
	if invalidates < 1 {
		t.Errorf("per-second load holds %d Invalidate frames, want >= 1", invalidates)
	}

	// The lease_load_* gauges ride the normal metrics endpoint.
	if v := parseProm(httpGet(t, base+"/metrics"))[`lease_load_peak_mps{node="ttest"}`]; v < 1 {
		t.Errorf(`lease_load_peak_mps{node="ttest"} = %v`, v)
	}
}

// TestStartBindFailureLeavesNothingRunning: when the debug listener cannot
// bind, start returns the error and the load sampler it had built is not left
// ticking behind it.
func TestStartBindFailureLeavesNothingRunning(t *testing.T) {
	occupied, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer occupied.Close()
	in, err := start(options{
		addr:     "127.0.0.1:0",
		volume:   "bindtest",
		nObjects: 1,
		objLease: time.Minute,
		volLease: 10 * time.Second,
		mode:     "eager",
		obs: daemon.Options{
			DebugAddr: occupied.Addr().String(),
		},
	})
	if err == nil {
		in.Close()
		t.Fatal("start succeeded on an occupied debug address")
	}
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	if loop := "cost.(*Accounting).Run"; strings.Contains(string(stacks), loop) {
		t.Errorf("start failed with %q but left %s running", err, loop)
	}
}
