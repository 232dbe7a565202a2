package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestDebugServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("lease_test_total").Add(7)
	reg.Histogram("lease_test_seconds").Observe(5 * time.Millisecond)
	ring := NewRingSink(16)
	ring.Observe(Event{Type: EvConnect, Node: "srv", At: time.Now()})

	d, err := Serve("127.0.0.1:0", reg, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "lease_test_total 7") {
		t.Errorf("/metrics = %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, body := get("/debug/events"); code != 200 || !strings.Contains(body, "connect") {
		t.Errorf("/debug/events = %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("/nope = %d, want 404", code)
	}
}

func TestDebugEventsFilters(t *testing.T) {
	ring := NewRingSink(16)
	old := time.Now().Add(-time.Hour)
	ring.Observe(Event{Type: EvConnect, Client: "c1", At: old})
	ring.Observe(Event{Type: EvVolLeaseGrant, Client: "c1", Volume: "vol", At: old})
	ring.Observe(Event{Type: EvWriteApplied, Object: "a", Version: 2, At: time.Now()})

	d, err := Serve("127.0.0.1:0", nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	// ?type= keeps only the named event types and is repeatable.
	if _, body := get("/debug/events?type=vol-lease-grant"); !strings.Contains(body, "vol-lease-grant") ||
		strings.Contains(body, "write-applied") || strings.Contains(body, `"connect"`) {
		t.Errorf("type filter leaked: %q", body)
	}
	if _, body := get("/debug/events?type=vol-lease-grant&type=write-applied"); !strings.Contains(body, "vol-lease-grant") ||
		!strings.Contains(body, "write-applied") || strings.Contains(body, `"connect"`) {
		t.Errorf("repeated type filter wrong: %q", body)
	}

	// ?since= with a duration drops events older than the window.
	if _, body := get("/debug/events?since=5m"); strings.Contains(body, "vol-lease-grant") ||
		!strings.Contains(body, "write-applied") {
		t.Errorf("since filter wrong: %q", body)
	}
	// ...and with an RFC3339 instant keeps everything after it.
	cutoff := time.Now().Add(-2 * time.Hour).Format(time.RFC3339Nano)
	if _, body := get("/debug/events?since=" + url.QueryEscape(cutoff)); !strings.Contains(body, "vol-lease-grant") {
		t.Errorf("RFC3339 since dropped events: %q", body)
	}

	if code, _ := get("/debug/events?since=not-a-time"); code != 400 {
		t.Errorf("bad since = %d, want 400", code)
	}
}

// TestDebugEventsFiltersTraces: ?trace= keeps one causal chain's records and
// ?min_dur= the phases at least that long; both compose with ?type=, and a
// bad value is a 400, not a silent full dump.
func TestDebugEventsFiltersTraces(t *testing.T) {
	ring := NewRingSink(16)
	at := time.Now()
	ring.Observe(Event{Type: EvWriteUnblocked, Object: "o1", At: at, Dur: 30 * time.Millisecond, Trace: 1, Parent: 1})
	ring.Observe(Event{Type: EvWrite, Object: "o1", At: at, Dur: 40 * time.Millisecond, Trace: 1, Span: 1})
	ring.Observe(Event{Type: EvInvalSent, Client: "c1", Object: "o2", At: at, Dur: time.Millisecond, Trace: 2, Span: 3, Parent: 2})
	ring.Observe(Event{Type: EvConnect, Client: "c1", At: at})

	d, err := Serve("127.0.0.1:0", nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	types := func(query string) (int, []string) {
		t.Helper()
		resp, err := http.Get("http://" + d.Addr() + "/debug/events" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got []string
		for dec := json.NewDecoder(resp.Body); dec.More(); {
			var e EventJSON
			if err := dec.Decode(&e); err != nil {
				return resp.StatusCode, nil
			}
			got = append(got, e.Type)
		}
		return resp.StatusCode, got
	}
	for query, want := range map[string][]string{
		"?trace=1":              {"write-unblocked", "write"},
		"?trace=2":              {"inval-sent"},
		"?min_dur=25ms":         {"write-unblocked", "write"},
		"?trace=1&type=write":   {"write"},
		"?trace=2&min_dur=25ms": nil,
	} {
		if code, got := types(query); code != 200 || !slices.Equal(got, want) {
			t.Errorf("%s = %d %v, want %v", query, code, got, want)
		}
	}
	for _, query := range []string{"?trace=x", "?trace=0", "?min_dur=fast"} {
		if code, _ := types(query); code != 400 {
			t.Errorf("%s = %d, want 400", query, code)
		}
	}
}

// TestDebugEventsConcurrent reads the endpoint while emitters are active —
// under -race this pins the snapshot/record interleaving.
func TestDebugEventsConcurrent(t *testing.T) {
	ring := NewRingSink(32)
	o := &Observer{Tracer: NewTracer(ring)}
	d, err := Serve("127.0.0.1:0", nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := o.NewID()
				o.Emit(Event{Type: EvWrite, At: time.Now(), Trace: id, Span: id})
			}
		}()
	}
	for i := 0; i < 20; i++ {
		for _, query := range []string{"", "?type=write&min_dur=0s"} {
			resp, err := http.Get("http://" + d.Addr() + "/debug/events" + query)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()
}

// TestDebugEventsSinceSimulatedClock pins the clock-injection contract:
// relative ?since= windows are resolved against the injected clock, so a
// stack stamping events on simulated time filters on that timeline — not
// on the wall clock, which may be decades away from it.
func TestDebugEventsSinceSimulatedClock(t *testing.T) {
	base := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(base)

	ring := NewRingSink(16)
	ring.Observe(Event{Type: EvConnect, Client: "c1", At: base.Add(-time.Hour)})
	ring.Observe(Event{Type: EvWriteApplied, Object: "a", Version: 1, At: base.Add(-time.Minute)})

	d, err := ServeClock(clk, "127.0.0.1:0", nil, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get("http://" + d.Addr() + "/debug/events?since=5m")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"connect"`) || !strings.Contains(string(body), "write-applied") {
		t.Errorf("simulated-clock since window wrong: %q", body)
	}
}
