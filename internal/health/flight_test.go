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

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Observe(obs.Event{Type: obs.EvConnect})
	f.AttachCost(nil)
	if f.Total() != 0 {
		t.Errorf("nil Total = %d", f.Total())
	}
	if got := f.Events(clock.Epoch); got != nil {
		t.Errorf("nil Events = %v", got)
	}
	d := f.Snapshot(clock.Epoch, nil)
	if len(d.Events) != 0 {
		t.Errorf("nil Snapshot has %d events", len(d.Events))
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder("n", 4, time.Minute)
	base := clock.Epoch
	for i := 0; i < 10; i++ {
		f.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvConnect))
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	events := f.Events(base.Add(10 * time.Second))
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4 (ring size)", len(events))
	}
	// The ring must retain the newest 4, oldest first.
	for i, e := range events {
		want := base.Add(time.Duration(6+i) * time.Second)
		if !e.At.Equal(want) {
			t.Errorf("event %d at %v, want %v", i, e.At, want)
		}
	}
}

func TestFlightRecorderWindowFilter(t *testing.T) {
	f := NewFlightRecorder("n", 64, 5*time.Second)
	base := clock.Epoch
	for i := 0; i < 10; i++ {
		f.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvConnect))
	}
	now := base.Add(9 * time.Second)
	events := f.Events(now)
	// Window [now-5s, now] = seconds 4..9.
	if len(events) != 6 {
		t.Fatalf("retained %d events in window, want 6", len(events))
	}
	if events[0].At.Before(now.Add(-5 * time.Second)) {
		t.Errorf("event %v escapes the window", events[0].At)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	f := NewFlightRecorder("n", 128, time.Minute)
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
				f.Observe(evAt(base.Add(time.Duration(i)*time.Millisecond), obs.EvCacheRead))
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		events := f.Events(base.Add(time.Hour))
		for j := 1; j < len(events); j++ {
			if events[j].At.Before(events[j-1].At) {
				t.Fatalf("snapshot not sorted at %d", j)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotIncludesSpansAndTimeline: a write's causal records are events
// like any other, so the dump's window keeps the recent ones and drops an
// ancient one, beside the per-second load.
func TestSnapshotIncludesSpansAndTimeline(t *testing.T) {
	base := clock.Epoch
	sim := clock.NewSimulated(base.Add(10 * time.Second))
	f := NewFlightRecorder("n", 64, 30*time.Second)
	acct := cost.New("n", sim.Now)
	f.AttachCost(acct)

	f.Observe(obs.Event{Type: obs.EvWrite, At: base.Add(9 * time.Second), Dur: time.Second, Trace: 1, Span: 1})
	// An ancient record outside the window must be dropped.
	f.Observe(obs.Event{Type: obs.EvWrite, At: base.Add(-time.Hour), Dur: time.Second, Trace: 2, Span: 2})
	acct.TapConn("n:1", "c:0").Observe(transport.Frame{Sent: true, Msg: wire.Hello{}}) // in progress at second 10
	f.Observe(evAt(base.Add(9*time.Second), obs.EvWriteApplied))

	d := f.Snapshot(sim.Now(), &Trigger{Cause: CauseAudit, At: sim.Now(), Detail: "epoch moved backwards"})
	if len(d.Events) != 2 || d.Events[0].Type != "write" || d.Events[0].Trace != 1 || d.Events[0].DurNS != int64(time.Second) ||
		d.Events[1].Type != "write-applied" {
		t.Fatalf("events = %+v, want the in-window write record and the commit", d.Events)
	}
	if len(d.Seconds) != 1 || d.Seconds[0].Msgs != 1 {
		t.Fatalf("seconds = %+v", d.Seconds)
	}
	if d.Trigger == nil || d.Trigger.Cause != CauseAudit {
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
	f := NewFlightRecorder("srv one", 64, 30*time.Second)
	for i := 0; i < 5; i++ {
		f.Observe(evAt(base.Add(time.Duration(i)*time.Second), obs.EvCacheRead))
	}
	tr := Trigger{Cause: CauseAudit, At: base.Add(4 * time.Second), Detail: "test"}
	d := f.Snapshot(base.Add(6*time.Second), &tr)

	dir := t.TempDir()
	path, err := WriteDump(dir, d)
	if err != nil {
		t.Fatal(err)
	}
	if name := filepath.Base(path); strings.ContainsAny(name, " ") || !strings.HasPrefix(name, "flight-srv_one-audit-violation-") {
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
	f := NewFlightRecorder("srv", 16, time.Minute)
	f.Observe(evAt(clock.Epoch, obs.EvConnect))
	first, err := WriteDump(dir, f.Snapshot(clock.Epoch, nil))
	if err != nil {
		t.Fatal(err)
	}
	f.Observe(evAt(clock.Epoch, obs.EvDisconnect))
	second, err := WriteDump(dir, f.Snapshot(clock.Epoch, nil))
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

// BenchmarkFlightDisabled gates the zero-allocation disabled path: a nil
// *FlightRecorder must cost one nil check and never let the event escape.
// `make bench-disabled` fails the build if allocs/op or B/op is nonzero.
func BenchmarkFlightDisabled(b *testing.B) {
	var f *FlightRecorder
	e := obs.Event{Type: obs.EvWriteApplied, At: clock.Epoch, Node: "bench", Object: "o", Volume: "v"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(e)
	}
}

func BenchmarkFlightRecord(b *testing.B) {
	f := NewFlightRecorder("bench", 8192, time.Minute)
	e := obs.Event{Type: obs.EvWriteApplied, At: clock.Epoch, Node: "bench", Object: "o", Volume: "v"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Observe(e)
	}
}

func TestDumpFreezesAttachedLeaseState(t *testing.T) {
	base := clock.Epoch
	f := NewFlightRecorder("srv", 16, 30*time.Second)
	f.Observe(evAt(base, obs.EvCacheRead))

	// Without an attached source, dumps carry no lease state.
	if d := f.Snapshot(base.Add(time.Second), nil); d.LeaseState != nil {
		t.Fatalf("unattached recorder froze lease state: %+v", d.LeaseState)
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
	f.AttachState(state.NewSource(func() state.Dump { return want }))

	d := f.Snapshot(base.Add(2*time.Second), nil)
	if d.LeaseState == nil {
		t.Fatal("snapshot did not freeze the attached lease state")
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
