package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/state"
	"repro/internal/transport"
)

// stateNode serves fixed lease_state_* gauges, the shape a daemon with lease
// introspection enabled exposes.
func stateNode(t *testing.T, name string) string {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(w, "lease_state_object_leases{node=%q} 3\n", name)
		fmt.Fprintf(w, "lease_state_volume_leases{node=%q} 2\n", name)
		fmt.Fprintf(w, "lease_state_expiring{node=%q} 1\n", name)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFleetStateColumnsFromGauges(t *testing.T) {
	ep := stateNode(t, "zeta")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-rate-window", "0", ep}); code != 0 {
		t.Fatalf("exit = %d\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	var line string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "zeta") {
			line = l
		}
	}
	fields := strings.Fields(line)
	if len(fields) != 9 {
		t.Fatalf("zeta row has %d columns, want 9: %q", len(fields), line)
	}
	if fields[1] != "zeta" { // NODE, from the series' node label
		t.Errorf("NODE = %q, want zeta: %q", fields[1], line)
	}
	if fields[4] != "5" { // LEASES = object + volume gauges
		t.Errorf("LEASES = %q, want 5: %q", fields[4], line)
	}
	if fields[5] != "1" { // EXPIRING
		t.Errorf("EXPIRING = %q, want 1: %q", fields[5], line)
	}
}

// leaseEndpoint mounts a state source's /debug/leases on a live debug
// server, the way the daemons do.
func leaseEndpoint(t *testing.T, src *state.Source) string {
	t.Helper()
	dbg, err := obs.Serve("127.0.0.1:0", obs.NewRegistry(), nil,
		obs.Route{Path: "/debug/leases", Handler: state.Handler(src)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dbg.Close() })
	return dbg.Addr()
}

// clientSource wraps one client as a client-role dump: a single-client Dump
// whose Server field names the upstream address.
func clientSource(c *client.Client, node string) *state.Source {
	return state.NewSource(func() state.Dump {
		cs := c.StateSnapshot()
		cs.Server = "srv:1"
		return state.Dump{Role: state.RoleClient, Node: node, TakenAt: cs.TakenAt,
			Clients: []state.ClientSnapshot{cs}}
	})
}

// TestStateDumpSmoke drives the -leases and -diff modes against a live
// server and two clients on simulated clocks: clean while the views agree,
// exit 2 with a holder mismatch once the server's clock runs past expiry
// while a client's stands still (the client keeps trusting leases the
// server has dropped).
func TestStateDumpSmoke(t *testing.T) {
	start := time.Unix(100000, 0)
	srvClock := clock.NewSimulated(start)
	c1Clock := clock.NewSimulated(start)
	c2Clock := clock.NewSimulated(start)

	net := transport.NewMemory()
	srv, err := server.New(server.Config{
		Name: "srv", Addr: "srv:1", Net: net, Clock: srvClock,
		Table:      core.Config{ObjectLease: time.Hour, VolumeLease: time.Hour, Mode: core.ModeEager},
		MsgTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if err := srv.AddVolume("vol"); err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"a", "b"} {
		if err := srv.AddObject("vol", core.ObjectID(o), []byte("init-"+o)); err != nil {
			t.Fatal(err)
		}
	}
	dial := func(id string, ck clock.Clock) *client.Client {
		c, err := client.Dial(net, "srv:1", client.Config{
			ID: core.ClientID(id), Skew: 10 * time.Millisecond, Timeout: 5 * time.Second, Clock: ck,
		})
		if err != nil {
			t.Fatalf("Dial(%s): %v", id, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	c1 := dial("c1", c1Clock)
	c2 := dial("c2", c2Clock)
	for _, rd := range []struct {
		c *client.Client
		o core.ObjectID
	}{{c1, "a"}, {c2, "b"}} {
		if _, err := rd.c.Read("vol", rd.o); err != nil {
			t.Fatalf("Read(%s): %v", rd.o, err)
		}
	}

	epSrv := leaseEndpoint(t, srv.StateSource())
	epC1 := leaseEndpoint(t, clientSource(c1, "bench-1"))
	epC2 := leaseEndpoint(t, clientSource(c2, "bench-2"))

	// Fleet lease table: one row per endpoint, all reachable.
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-leases", epSrv, epC1, epC2}); code != 0 {
		t.Fatalf("-leases exit %d\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	table := out.String()
	for _, want := range []string{"srv", "server", "bench-1", "bench-2", "client"} {
		if !strings.Contains(table, want) {
			t.Errorf("lease table missing %q:\n%s", want, table)
		}
	}

	// Quiescent fleet, same clock origin: the diff is clean.
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-diff", epSrv, epC1, epC2}); code != 0 {
		t.Fatalf("clean -diff exit %d\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	if !strings.Contains(out.String(), "clean") {
		t.Errorf("clean diff output:\n%s", &out)
	}

	// A client endpoint in the server slot is a usage error.
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-diff", epC1, epSrv}); code != 1 {
		t.Fatalf("client-first -diff exit %d, want 1\n%s", code, &errw)
	}

	// Run the server's clock past every lease while the clients' clocks
	// stand still: the server drops the records, the clients keep trusting
	// them — the unsafe direction the diff must flag.
	srvClock.Advance(2 * time.Hour)
	out.Reset()
	errw.Reset()
	code := run(&out, &errw, []string{"-diff", epSrv, epC1, epC2})
	if code != 2 {
		t.Fatalf("post-expiry -diff exit %d, want 2\nstdout:\n%s\nstderr:\n%s", code, &out, &errw)
	}
	report := out.String()
	if !strings.Contains(report, state.KindHolderMismatch) {
		t.Errorf("diff report missing %s:\n%s", state.KindHolderMismatch, report)
	}
	if !strings.Contains(report, "divergence") {
		t.Errorf("diff report missing divergence count:\n%s", report)
	}
}
