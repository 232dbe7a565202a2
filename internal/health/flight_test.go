package health

import (
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/obs"
	"repro/internal/state"
	"repro/internal/transport"
	"repro/internal/wire"
)

func evAt(at time.Time, typ obs.EventType) obs.Event {
	return obs.Event{Type: typ, At: at, Node: "n"}
}

// TestFlightRecorderNilSafe: a node with its ring off (-trace 0) and no
// accounting or lease source still freezes, into a dump with nothing in it.
func TestFlightRecorderNilSafe(t *testing.T) {
	d := Freeze("n", clock.Epoch, nil, nil, nil, nil)
	if d.Node != "n" || !d.WrittenAt.Equal(clock.Epoch) || len(d.Events) != 0 || len(d.Seconds) != 0 || d.LeaseState != nil {
		t.Errorf("nil-source freeze = %+v, want an empty dump of n", d)
	}
}

// TestFlightRecorderWraparound: a freeze holds what the ring retains — the
// newest events, oldest first.
func TestFlightRecorderWraparound(t *testing.T) {
	ring := obs.NewRingSink(4)
	base := clock.Epoch
	for i := 0; i < 10; i++ {
		ring.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvConnect))
	}
	if ring.Total() != 10 {
		t.Fatalf("Total = %d, want 10", ring.Total())
	}
	events := Freeze("n", base.Add(10*time.Second), nil, ring, nil, nil).Events
	if len(events) != 4 {
		t.Fatalf("froze %d events, want 4 (ring size)", len(events))
	}
	for i, e := range events {
		want := base.Add(time.Duration(6+i) * time.Second)
		if !e.At.Equal(want) {
			t.Errorf("event %d at %v, want %v", i, e.At, want)
		}
	}
}

// TestFlightRecorderWindowFilter: the ring's size is the only bound on what
// a freeze keeps; an event is not dropped for its age.
func TestFlightRecorderWindowFilter(t *testing.T) {
	ring := obs.NewRingSink(64)
	base := clock.Epoch
	ring.Observe(evAt(base.Add(-time.Hour), obs.EvConnect))
	for i := 0; i < 9; i++ {
		ring.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvConnect))
	}
	events := Freeze("n", base.Add(9*time.Second), nil, ring, nil, nil).Events
	if len(events) != 10 || !events[0].At.Equal(base.Add(-time.Hour)) {
		t.Fatalf("froze %d events starting %v, want all 10 from an hour before", len(events), events[0].At)
	}
}

// TestFlightRecorderConcurrent: freezes taken while four goroutines record
// hold only whole events, never more than the ring's slots, and the last
// freeze fills the ring.
func TestFlightRecorderConcurrent(t *testing.T) {
	ring := obs.NewRingSink(128)
	base := clock.Epoch
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ring.Observe(obs.Event{Type: obs.EvCacheRead, At: base.Add(time.Duration(i) * time.Millisecond), N: g + 1})
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		events := Freeze("n", base, nil, ring, nil, nil).Events
		if len(events) > 128 {
			t.Fatalf("freeze holds %d events from a 128-slot ring", len(events))
		}
		for _, e := range events {
			if e.Type != "cache-read" || e.N < 1 || e.N > 4 {
				t.Fatalf("torn event %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := len(Freeze("n", base, nil, ring, nil, nil).Events); ring.Total() >= 128 && n != 128 {
		t.Errorf("after %d events the freeze holds %d, want the ring's 128", ring.Total(), n)
	}
}

// TestSnapshotIncludesSpansAndTimeline: a write's causal records are events
// like any other, so the freeze keeps them beside the per-second load.
func TestSnapshotIncludesSpansAndTimeline(t *testing.T) {
	base := clock.Epoch
	sim := clock.NewSimulated(base.Add(10 * time.Second))
	ring := obs.NewRingSink(64)
	acct := cost.New("n", sim.Now)

	ring.Observe(obs.Event{Type: obs.EvWrite, At: base.Add(9 * time.Second), Dur: time.Second, Trace: 1, Span: 1})
	acct.TapConn("n:1", "c:0").Observe(transport.Frame{Sent: true, Msg: wire.Hello{}}) // in progress at second 10
	ring.Observe(evAt(base.Add(9*time.Second), obs.EvWriteApplied))

	d := Freeze("n", sim.Now(), &Trigger{Cause: "manual", At: sim.Now(), Detail: "pulled for the test"}, ring, acct, nil)
	if len(d.Events) != 2 || d.Events[0].Type != "write" || d.Events[0].Trace != 1 || d.Events[0].DurNS != int64(time.Second) ||
		d.Events[1].Type != "write-applied" {
		t.Fatalf("events = %+v, want the write record and the commit", d.Events)
	}
	if len(d.Seconds) != 1 || d.Seconds[0].Msgs != 1 {
		t.Fatalf("seconds = %+v", d.Seconds)
	}
	if d.Trigger == nil || d.Trigger.Cause != "manual" {
		t.Fatalf("trigger = %+v", d.Trigger)
	}
}

// TestParseDumpWithSpans: a dump written before spans became events — a
// separate "spans" array beside the events — still parses, its events
// intact. testdata/flight-with-spans.json is such a dump.
func TestParseDumpWithSpans(t *testing.T) {
	d, err := ReadDump("testdata/flight-with-spans.json")
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, e := range d.Events {
		types = append(types, e.Type)
	}
	want := []string{"connect", "vol-lease-grant", "obj-lease-grant", "write-blocked",
		"inval-sent", "inval-acked", "write-applied", "write-unblocked"}
	if d.Node != "srv" || !slices.Equal(types, want) || len(d.Seconds) != 1 {
		t.Fatalf("old dump parsed as node %q, events %v, %d seconds", d.Node, types, len(d.Seconds))
	}
	if e := d.Events[7]; e.Object != "a" || e.DurNS != int64(4*time.Millisecond) {
		t.Errorf("write-unblocked = %+v", e)
	}
}

func TestDumpRoundTripAndPreTriggerSpan(t *testing.T) {
	base := clock.Epoch
	ring := obs.NewRingSink(64)
	for i := 0; i < 5; i++ {
		ring.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvCacheRead))
	}
	tr := Trigger{Cause: "manual", At: base.Add(4 * time.Second), Detail: "test"}
	d := Freeze("srv one", base.Add(6*time.Second), &tr, ring, nil, nil)

	dir := t.TempDir()
	path, err := WriteDump(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if name := filepath.Base(path); strings.ContainsAny(name, " ") || !strings.HasPrefix(name, "flight-srv_one-manual-") {
		t.Errorf("unexpected dump file name %q", name)
	}
	got, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "srv one" || len(got.Events) != 5 || got.Trigger == nil {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if *got.Trigger != tr {
		t.Fatalf("trigger round trip: %+v", got.Trigger)
	}
	if span := got.PreTriggerSpan(); span != 4*time.Second {
		t.Errorf("PreTriggerSpan = %v, want 4s", span)
	}
}

// TestWriteDumpNeverReplaces: two freezes in one millisecond build the same
// file name; the second lands beside the first instead of over it.
func TestWriteDumpNeverReplaces(t *testing.T) {
	dir := t.TempDir()
	ring := obs.NewRingSink(16)
	ring.Observe(evAt(clock.Epoch, obs.EvConnect))
	first, err := WriteDump(dir, Freeze("srv", clock.Epoch, nil, ring, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	ring.Observe(evAt(clock.Epoch, obs.EvDisconnect))
	second, err := WriteDump(dir, Freeze("srv", clock.Epoch, nil, ring, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if first == second {
		t.Fatalf("both dumps written to %s", first)
	}
	for path, events := range map[string]int{first: 1, second: 2} {
		d, err := ReadDump(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Events) != events {
			t.Errorf("%s holds %d events, want %d", filepath.Base(path), len(d.Events), events)
		}
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 2 {
		t.Errorf("dump dir holds %v, want the two dumps and nothing else", files)
	}
}

func TestDumpDirEnvOverride(t *testing.T) {
	t.Setenv("FLIGHT_DUMP_DIR", "/tmp/override")
	if got := DumpDir("fallback"); got != "/tmp/override" {
		t.Errorf("DumpDir = %q", got)
	}
	t.Setenv("FLIGHT_DUMP_DIR", "")
	if got := DumpDir("fallback"); got != "fallback" {
		t.Errorf("DumpDir = %q", got)
	}
}

// TestDumpFreezesAttachedLeaseState: given the node's lease source, a freeze
// carries the table itself, and it round-trips through the file.
func TestDumpFreezesAttachedLeaseState(t *testing.T) {
	base := clock.Epoch
	ring := obs.NewRingSink(16)
	ring.Observe(evAt(base, obs.EvCacheRead))

	// Without a source, dumps carry no lease state.
	if d := Freeze("srv", base.Add(time.Second), nil, ring, nil, nil); d.LeaseState != nil {
		t.Fatalf("a freeze without a source froze lease state: %+v", d.LeaseState)
	}

	want := state.Dump{
		Role: state.RoleServer, Node: "srv", TakenAt: base.Add(time.Second),
		Server: &state.ServerSnapshot{
			TakenAt:   base.Add(time.Second),
			Connected: []core.ClientID{"c1"},
			Volumes: []core.VolumeSnapshot{{
				Volume: "vol", Epoch: 2, TakenAt: base.Add(time.Second),
				VolumeLeases: []core.LeaseSnapshot{
					{Client: "c1", Granted: base, Expire: base.Add(10 * time.Second)},
				},
				PendingAcks: []core.PendingAck{{Client: "c1", Object: "a", Deadline: base.Add(10 * time.Second)}},
			}},
		},
	}
	src := state.NewSource(func() state.Dump { return want })

	d := Freeze("srv", base.Add(2*time.Second), nil, ring, nil, src)
	if d.LeaseState == nil {
		t.Fatal("the freeze did not hold the source's lease state")
	}

	path, err := WriteDump(t.TempDir(), d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	ls := got.LeaseState
	if ls == nil || ls.Server == nil {
		t.Fatalf("round trip lost lease state: %+v", got.LeaseState)
	}
	if ls.Role != state.RoleServer || ls.Node != "srv" || len(ls.Server.Volumes) != 1 {
		t.Fatalf("lease state round trip: %+v", ls)
	}
	vs := ls.Server.Volumes[0]
	if vs.Volume != "vol" || vs.Epoch != 2 ||
		len(vs.VolumeLeases) != 1 || !vs.VolumeLeases[0].Expire.Equal(base.Add(10*time.Second)) {
		t.Fatalf("volume state round trip: %+v", vs)
	}
	if len(vs.PendingAcks) != 1 || vs.PendingAcks[0].Object != "a" {
		t.Fatalf("pending acks round trip: %+v", vs.PendingAcks)
	}
	// The frozen dump must diff like a live one: the same Diff engine
	// consumes flight-dump lease state during postmortems.
	rep := state.Diff(*ls, nil, state.Options{})
	if !rep.Clean() || rep.ServerNode != "srv" {
		t.Fatalf("frozen dump did not diff: %+v", rep)
	}
}
