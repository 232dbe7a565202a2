package daemon

import (
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/health"
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

func driven(t *testing.T, role string, opts Options, slowWrite time.Duration) *node {
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
		MsgTimeout: 50 * time.Millisecond, SlowWriteThreshold: slowWrite,
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
				Node: role, DebugAddr: "127.0.0.1:0", Trace: 64, Spans: 64,
				Flight: 256, FlightDir: t.TempDir(),
				Audit: role == "server", // leaseproxy has no -audit
			}, time.Nanosecond)
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
			mounted := []string{"/metrics", "/debug/pprof/", "/debug/events", "/debug/leases",
				"/debug/audit", "/debug/cost", "/debug/flightrecorder", "/debug/spans"}
			if role == "proxy" {
				mounted = slices.DeleteFunc(mounted, func(p string) bool { return p == "/debug/audit" })
			}
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
	n := driven(t, "server", Options{Node: "srv", Trace: 16}, 0)
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
	n := driven(t, "server", Options{Node: "srv"}, 0)
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

// TestSlowWriteEmitsOneEvent: `leased -slow-write D -spans N` is one
// threshold, so a write past it is one slow-op in the event stream — the
// server's, which also counts it and needs no span recorder. The recorder used
// to mirror its root write span into the stream under the same threshold, and
// every slow write showed up twice.
func TestSlowWriteEmitsOneEvent(t *testing.T) {
	// On the wall clock: the simulated one stands still across the ack wait.
	n := driven(t, "server", Options{Node: "srv", Clock: clock.Real{}, Trace: 64, Spans: 64}, time.Nanosecond)
	slow := 0
	for _, e := range n.stack.ring.Snapshot() {
		if e.Type == obs.EvSlowOp {
			slow++
		}
	}
	if slow != 1 {
		t.Errorf("one write to a held lease past the threshold emitted %d slow-op events, want 1", slow)
	}
	if n.stack.Obs.SpanRec().Total() == 0 {
		t.Error("no spans recorded; the write was not traced")
	}
}

// audited is an audited stack on clk with a flight recorder dumping into
// dir, fed a volume lease grant per epoch.
func audited(t *testing.T, clk clock.Clock, dir string, epochs ...core.Epoch) *Stack {
	t.Helper()
	t.Setenv("FLIGHT_DUMP_DIR", "") // the dump must land in dir
	stack := New(Options{Node: "srv", Clock: clk, Table: table, Audit: true, Flight: 64, FlightDir: dir})
	t.Cleanup(stack.Close)
	grant(stack, epochs...)
	return stack
}

func grant(stack *Stack, epochs ...core.Epoch) {
	for _, epoch := range epochs {
		stack.Obs.Emit(obs.Event{Type: obs.EvVolLeaseGrant, At: stack.opts.Clock.Now(), Node: "srv", Client: "c", Volume: "v", Epoch: epoch})
	}
}

// TestAuditViolationLeavesFlightDump crafts an invariant violation (an epoch
// moving backwards) and asserts AuditErr — leased's exit status at shutdown —
// returns an error and leaves one parseable flight dump behind, whose path it
// returns: the violation's own freeze, written at once although its tail has
// not run out.
func TestAuditViolationLeavesFlightDump(t *testing.T) {
	dir := t.TempDir()
	stack := audited(t, clock.Real{}, dir, 5, 3) // 5 then 3: epoch monotonicity breach
	if len(stack.Audit.Violations()) == 0 {
		t.Fatal("crafted event stream recorded no violation")
	}
	dumps, err := stack.AuditErr("audit violations at shutdown")
	if err == nil {
		t.Fatal("violating run reported success")
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-srv-*.json"))
	if len(files) != 1 || !slices.Equal(dumps, files) {
		t.Fatalf("AuditErr returned dumps %v; %v on disk, want exactly one, the same", dumps, files)
	}
	d, err := health.ReadDump(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 2 || d.Trigger == nil || d.Trigger.Cause != health.CauseAudit {
		t.Fatalf("dump = %d events, trigger %+v", len(d.Events), d.Trigger)
	}
}

// TestAuditViolationFreezesOnceAfterTail: on a simulated clock, the first
// violation freezes exactly one dump health.Tail later, and a second one
// inside the cooldown freezes none — not even when Close flushes.
func TestAuditViolationFreezesOnceAfterTail(t *testing.T) {
	dir := t.TempDir()
	sim := clock.NewSimulated(clock.Epoch)
	stack := audited(t, sim, dir, 5, 3)
	if d, ok := sim.NextDeadline(); !ok || !d.Equal(clock.Epoch.Add(health.Tail)) {
		t.Fatalf("violation armed %v, %v; want a freeze at +%v", d, ok, health.Tail)
	}
	sim.Advance(health.Tail - time.Nanosecond)
	if files := stack.Health.Files(); len(files) != 0 {
		t.Fatalf("froze %v before the tail ran out", files)
	}
	sim.Advance(time.Nanosecond)
	for deadline := time.Now().Add(2 * time.Second); len(stack.Health.Files()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no dump after the tail")
		}
	}
	before := len(stack.Audit.Violations())
	grant(stack, 2) // 3 then 2: a second breach, inside the cooldown
	if len(stack.Audit.Violations()) == before {
		t.Fatal("the second breach recorded no violation")
	}
	if d, ok := sim.NextDeadline(); ok {
		t.Fatalf("the second violation armed a freeze at %v", d)
	}
	stack.Close()
	if files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json")); len(files) != 1 {
		t.Fatalf("dumps on disk: %v, want exactly one", files)
	}
}

// TestAuditCleanLeavesNoDump: when every invariant held, AuditErr is nil and
// freezes nothing.
func TestAuditCleanLeavesNoDump(t *testing.T) {
	dir := t.TempDir()
	stack := audited(t, clock.Real{}, dir, 3, 5)
	dumps, err := stack.AuditErr("audit violations at shutdown")
	if err != nil || len(dumps) != 0 {
		t.Fatalf("clean run: AuditErr = %v, %v; want nil, no dumps", dumps, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Errorf("clean run left %v", files)
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
			case "repro/internal/audit", "repro/internal/cost", "repro/internal/health",
				"repro/internal/state":
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
	if want := []string{"debug-addr", "flight", "flight-dir", "spans", "trace"}; !slices.Equal(got, want) {
		t.Errorf("shared flags = %v, want %v", got, want)
	}
}
