package daemon

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/proxy"
	"repro/internal/server"
	"repro/internal/transport"
)

var table = core.Config{ObjectLease: time.Minute, VolumeLease: 10 * time.Second, Mode: core.ModeEager}

// node is a stack with everything on around a server-role or proxy-role node,
// on the in-memory network and (unless opts brings a clock) the simulated
// clock, after one miss, one hit and one write against a lease holder.
type node struct {
	stack  *Stack
	holder *client.Client
	logMu  sync.Mutex
	log    []string
}

func driven(t *testing.T, role string, opts Options) *node {
	t.Helper()
	n := &node{}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewSimulated(clock.Epoch)
	}
	opts.Clock = clk
	opts.Table = table
	opts.Logf = func(format string, args ...any) {
		n.logMu.Lock()
		defer n.logMu.Unlock()
		n.log = append(n.log, fmt.Sprintf(format, args...))
	}
	n.stack = New(opts)
	t.Cleanup(n.stack.Close)
	net := transport.NewMemory()
	net.Taps = n.stack.Taps

	origin := server.Config{
		Name: "origin", Addr: "origin:1", Net: net, Clock: clk, Table: table,
		MsgTimeout: 50 * time.Millisecond,
	}
	target := origin.Addr
	if role == "server" {
		origin.Obs = n.stack.Obs
	}
	srv, err := server.New(origin)
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
	src := srv.StateSource()
	if role == "proxy" {
		px, err := proxy.New(proxy.Config{
			ID: "edge", Addr: "edge:1", Net: net, Clock: clk, Upstream: origin.Addr, Volume: "vol",
			SubObjectLease: table.ObjectLease, SubVolumeLease: table.VolumeLease,
			MsgTimeout: 50 * time.Millisecond, Obs: n.stack.Obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		target, src = px.Addr(), px.StateSource()
	}
	if err := n.stack.Start(src); err != nil {
		t.Fatal(err)
	}

	dial := func(id core.ClientID) *client.Client {
		c, err := client.Dial(net, target, client.Config{ID: id, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	holder, writer := dial("holder"), dial("writer")
	for i := 0; i < 2; i++ { // a miss, then a hit
		if _, err := holder.Read("vol", "a"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := writer.Write("a", []byte("a v2")); err != nil {
		t.Fatal(err)
	}
	n.holder = holder
	return n
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v", url, resp.StatusCode, err)
	}
	return string(body)
}

// TestSeriesSurface pins what a daemon exports, per role: the metric families
// on /metrics are the golden list (the PR 18 daemons' families, scraped from
// the built binaries, minus the nine per-frame duplicate families this
// package's introduction retired), every one of them is documented in
// METRICS.md, and the index at / is the mounted route list the startup line
// printed.
func TestSeriesSurface(t *testing.T) {
	metricsMD, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, role := range []string{"server", "proxy"} {
		t.Run(role, func(t *testing.T) {
			n := driven(t, role, Options{
				Node: role, DebugAddr: "127.0.0.1:0", Trace: 64,
			})
			base := "http://" + n.stack.DebugAddr()

			seen := map[string]bool{}
			for _, line := range strings.Split(get(t, base+"/metrics"), "\n") {
				if line != "" && !strings.HasPrefix(line, "#") {
					seen[line[:strings.IndexAny(line, "{ ")]] = true
				}
			}
			var got []string
			for fam := range seen {
				got = append(got, fam)
			}
			slices.Sort(got)
			golden, err := os.ReadFile("testdata/families_" + role + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Fields(string(golden))
			if !slices.Equal(got, want) {
				for _, fam := range got {
					if !slices.Contains(want, fam) {
						t.Errorf("exported but not in the golden list: %s", fam)
					}
				}
				for _, fam := range want {
					if !seen[fam] {
						t.Errorf("in the golden list but not exported: %s", fam)
					}
				}
			}
			for _, fam := range got {
				// A summary's _sum and _count ride on its documented name.
				name := strings.TrimSuffix(strings.TrimSuffix(fam, "_sum"), "_count")
				if !strings.Contains(string(metricsMD), "`"+name) {
					t.Errorf("%s is exported but METRICS.md does not name it", fam)
				}
			}

			// With everything on, the index is the full route list for the
			// role, every entry answers, and the startup line printed it.
			index := strings.Fields(strings.TrimPrefix(get(t, base+"/"), "lease debug server"))
			mounted := []string{"/metrics", "/debug/pprof/", "/debug/events", "/debug/leases", "/debug/cost"}
			if !slices.Equal(index, mounted) {
				t.Errorf("index lists %v, want %v", index, mounted)
			}
			for _, path := range index {
				get(t, base+path)
			}
			startup := "debug server on " + base + " (" + strings.Join(index, " ") + ")"
			n.logMu.Lock()
			defer n.logMu.Unlock()
			if !slices.Contains(n.log, startup) {
				t.Errorf("startup log %q does not hold %q", n.log, startup)
			}
		})
	}
}

// TestEventsRingHoldsProtocolEventsOnly: frames are counted by the tap's
// sinks, not replayed into the event stream, so wire traffic that changes no
// lease state — here 100 reads that miss the cache and are refused — cannot
// push the connects and grants an operator asked /debug/events for out of a
// small ring.
func TestEventsRingHoldsProtocolEventsOnly(t *testing.T) {
	n := driven(t, "server", Options{Node: "srv", Trace: 16})
	frames := n.stack.Cost.Totals().MessagesRecv
	for i := 0; i < 100; i++ {
		if _, err := n.holder.Read("vol", "no-such-object"); err == nil {
			t.Fatal("read of a missing object succeeded")
		}
	}
	if got := n.stack.Cost.Totals().MessagesRecv - frames; got < 200 {
		t.Fatalf("100 refused reads crossed the tap as %d received frames, want a request and a reply each", got)
	}
	kinds := map[obs.EventType]int{}
	for _, e := range n.stack.ring.Snapshot() {
		kinds[e.Type]++
	}
	for _, want := range []obs.EventType{obs.EvConnect, obs.EvVolLeaseGrant, obs.EvObjLeaseGrant} {
		if kinds[want] == 0 {
			t.Errorf("%s evicted from the 16-slot ring, which holds %v", want, kinds)
		}
	}
}

// TestStackSamplesLoad: once started, the stack files each closed second's
// frames under that second, on its own clock — the per-second load behind
// /debug/cost's seconds and the lease_load_* gauges. Unsampled, every frame
// would sit in whichever second is in progress.
func TestStackSamplesLoad(t *testing.T) {
	n := driven(t, "server", Options{Node: "srv"})
	clk := n.stack.opts.Clock.(*clock.Simulated)
	begun := clk.Now().Unix()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		secs := n.stack.Cost.Seconds()
		if clk.Now().Unix() > begun && len(secs) > 0 && secs[0].Unix == begun && secs[0].Msgs > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the driven second was never filed: seconds %+v", n.stack.Cost.Seconds())
		}
		clk.Advance(100 * time.Millisecond)
	}
}

// TestTraceRecordsWrites: with -trace on, the node's event stream holds each
// write's causal records with nothing else switched on, one record per fact:
// here a write to one held lease leaves its write record and the blocked,
// sent and unblocked records it parents, under one trace id.
func TestTraceRecordsWrites(t *testing.T) {
	n := driven(t, "server", Options{Node: "srv", Trace: 64})
	// The flusher emits inval-sent once its send returns, which may be after
	// the write has.
	byType := map[obs.EventType][]obs.Event{}
	for deadline := time.Now().Add(5 * time.Second); len(byType[obs.EvInvalSent]) == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		clear(byType)
		for _, e := range n.stack.ring.Snapshot() {
			if e.Trace != 0 {
				byType[e.Type] = append(byType[e.Type], e)
			}
		}
	}
	writes := byType[obs.EvWrite]
	if len(writes) != 1 {
		t.Fatalf("write records = %+v, want 1", writes)
	}
	root := writes[0]
	for _, typ := range []obs.EventType{obs.EvWriteBlocked, obs.EvInvalSent, obs.EvWriteUnblocked} {
		if got := byType[typ]; len(got) != 1 || got[0].Trace != root.Trace || got[0].Parent != root.Span {
			t.Errorf("%s records = %+v, want one under the write %d/%d", typ, got, root.Trace, root.Span)
		}
	}
}

// TestDaemonsBuildNoObserver keeps the fork from regrowing: the two daemons
// reach the observer packages only through this one.
func TestDaemonsBuildNoObserver(t *testing.T) {
	for _, file := range []string{"../../cmd/leased/main.go", "../../cmd/leaseproxy/main.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			switch strings.Trim(imp.Path.Value, `"`) {
			case "repro/internal/cost", "repro/internal/health", "repro/internal/state":
				t.Errorf("%s imports %s; observers are assembled in internal/daemon", file, imp.Path.Value)
			}
		}
	}
}

// TestSharedFlags pins the flags every daemon shares: a fresh FlagSet holds
// exactly these, so a new observer knob has to be argued for here first.
func TestSharedFlags(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	var o Options
	o.Flags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"debug-addr", "trace"}; !slices.Equal(got, want) {
		t.Errorf("shared flags = %v, want %v", got, want)
	}
}

// TestOneEventRing: a stack built from the default flags records each event
// once — its tracer has exactly one sink, the ring /debug/events serves and
// leasemon -freeze reads, 8192 events deep.
func TestOneEventRing(t *testing.T) {
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	var o Options
	o.Flags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	s := New(o)
	sinks := s.Obs.Tracer.Sinks()
	if len(sinks) != 1 || sinks[0] != obs.Sink(s.ring) {
		t.Fatalf("default stack's tracer sinks = %v, want its one ring", sinks)
	}
	for i := 0; i < 9000; i++ {
		s.Obs.Emit(obs.Event{Type: obs.EvConnect})
	}
	if n := len(s.ring.Snapshot()); n != 8192 {
		t.Errorf("the default ring keeps %d events, want 8192", n)
	}
}
