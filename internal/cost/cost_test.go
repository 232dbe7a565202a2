package cost

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testNow() func() time.Time {
	base := time.Unix(1000, 0)
	return func() time.Time { return base }
}

func TestNilAccountingSafe(t *testing.T) {
	var a *Accounting
	a.Record(true, wire.Hello{Client: "c"}, 10, time.Microsecond)
	if a.Enabled() {
		t.Error("nil accounting reports enabled")
	}
	if got := a.Totals(); got != (Totals{}) {
		t.Errorf("nil Totals = %+v", got)
	}
	if d := a.Snapshot(); d.Node != "" || len(d.Kinds) != 0 {
		t.Errorf("nil Snapshot = %+v", d)
	}
	if s := a.TapConn("l", "r"); s != nil {
		t.Error("nil accounting minted a sink")
	}
	a.Register(obs.NewRegistry()) // must not panic
}

func TestRecordPerKindAndTotals(t *testing.T) {
	a := New("srv", testNow())
	a.Record(true, wire.ObjLease{Seq: 1, Object: "o"}, 40, 100*time.Nanosecond)
	a.Record(true, wire.ObjLease{Seq: 2, Object: "o"}, 60, 200*time.Nanosecond)
	a.Record(false, wire.ReqObjLease{Seq: 1, Object: "o"}, 20, 50*time.Nanosecond)

	d := a.Snapshot()
	if d.Node != "srv" {
		t.Errorf("node = %q", d.Node)
	}
	byKind := map[string]KindStat{}
	for _, k := range d.Kinds {
		byKind[k.Kind] = k
	}
	ol, ok := byKind["ObjLease"]
	if !ok {
		t.Fatalf("no ObjLease stat in %+v", d.Kinds)
	}
	if ol.FramesSent != 2 || ol.BytesSent != 100 || ol.FramesRecv != 0 {
		t.Errorf("ObjLease = %+v", ol)
	}
	if ol.Encode == nil || ol.Encode.Count != 2 || ol.Encode.MaxNs != 200 {
		t.Errorf("ObjLease encode hist = %+v", ol.Encode)
	}
	if ol.Messages() != 2 {
		t.Errorf("ObjLease messages = %d", ol.Messages())
	}
	rl := byKind["ReqObjLease"]
	if rl.FramesRecv != 1 || rl.BytesRecv != 20 {
		t.Errorf("ReqObjLease = %+v", rl)
	}
	want := Totals{MessagesSent: 2, MessagesRecv: 1, BytesSent: 100, BytesRecv: 20}
	if d.Totals != want {
		t.Errorf("totals = %+v, want %+v", d.Totals, want)
	}
	// Kinds with no traffic are omitted.
	if _, ok := byKind["Invalidate"]; ok {
		t.Error("idle kind present in dump")
	}
}

func TestZeroCodecNotObserved(t *testing.T) {
	a := New("srv", testNow())
	a.Record(false, wire.Hello{Client: "c"}, 10, 0)
	d := a.Snapshot()
	if len(d.Kinds) != 1 || d.Kinds[0].Decode != nil {
		t.Errorf("zero codec duration landed in histogram: %+v", d.Kinds)
	}
}

func TestVolumeAccounting(t *testing.T) {
	a := New("srv", testNow())
	a.Record(false, wire.ReqVolLease{Seq: 1, Volume: "vol-a"}, 15, 0)
	a.Record(true, wire.VolLease{Seq: 1, Volume: "vol-a"}, 25, 0)
	a.Record(true, wire.Invalidate{Objects: nil}, 5, 0) // no volume
	a.Record(false, wire.AckInvalidate{Volume: "vol-b"}, 9, 0)

	d := a.Snapshot()
	if len(d.Volumes) != 2 {
		t.Fatalf("volumes = %+v", d.Volumes)
	}
	va := d.Volumes[0]
	if va.Volume != "vol-a" || va.FramesRecv != 1 || va.FramesSent != 1 || va.BytesSent != 25 || va.BytesRecv != 15 {
		t.Errorf("vol-a = %+v", va)
	}
	if d.Volumes[1].Volume != "vol-b" || d.Volumes[1].BytesRecv != 9 {
		t.Errorf("vol-b = %+v", d.Volumes[1])
	}
}

func TestConnAggregatesRedials(t *testing.T) {
	a := New("srv", testNow())
	s1 := a.TapConn("srv:1", "client-1:0")
	s2 := a.TapConn("srv:1", "client-1:0") // redial, same peer
	if s1 != s2 {
		t.Error("redial minted a fresh sink")
	}
	s1.Observe(transport.Frame{Msg: wire.Hello{Client: "c"}, Size: 10})
	s2.Observe(transport.Frame{Msg: wire.ReqObjLease{Seq: 1, Object: "o"}, Size: 20})
	d := a.Snapshot()
	if len(d.Conns) != 1 || d.Conns[0].Remote != "client-1:0" || d.Conns[0].FramesRecv != 2 || d.Conns[0].BytesRecv != 30 {
		t.Errorf("conns = %+v", d.Conns)
	}
}

func TestConnOverflowBounded(t *testing.T) {
	a := New("srv", testNow())
	for i := 0; i < maxTrackedConns+50; i++ {
		a.TapConn("srv:1", fmt.Sprintf("client-%d:0", i)).Observe(transport.Frame{Msg: wire.Hello{Client: "c"}, Size: 1})
	}
	a.connMu.Lock()
	n := len(a.conns)
	over, ok := a.conns[overflowConn]
	a.connMu.Unlock()
	if n > maxTrackedConns+1 {
		t.Errorf("conn table grew to %d entries", n)
	}
	if !ok || over.recv.frames.Load() != 50 {
		t.Errorf("overflow bucket missing or wrong: %+v", over)
	}
}

func TestRegisterSeries(t *testing.T) {
	reg := obs.NewRegistry()
	a := New("srv", testNow())
	a.Register(reg)
	a.Record(true, wire.VolLease{Seq: 1, Volume: "v"}, 30, 2*time.Microsecond)
	a.Record(false, wire.ReqVolLease{Seq: 1, Volume: "v"}, 12, time.Microsecond)

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`lease_cost_frames_total{node="srv",kind="VolLease",dir="sent"} 1`,
		`lease_cost_frame_bytes_total{node="srv",kind="VolLease",dir="sent"} 30`,
		`lease_cost_messages_total{node="srv",dir="sent"} 1`,
		`lease_cost_messages_total{node="srv",dir="recv"} 1`,
		`lease_cost_bytes_total{node="srv",dir="sent"} 30`,
		`lease_cost_bytes_total{node="srv",dir="recv"} 12`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(body, `lease_cost_encode_ns{node="srv",quantile="0.99"}`) {
		t.Error("exposition missing encode quantile series")
	}
}

func TestHandlerFilters(t *testing.T) {
	a := New("srv", testNow())
	a.Record(true, wire.VolLease{Seq: 1, Volume: "vol-a"}, 30, 0)
	a.Record(true, wire.ObjLease{Seq: 2, Object: "o"}, 40, 0)
	a.Record(false, wire.AckInvalidate{Volume: "vol-b"}, 10, 0)
	h := Handler(a)

	get := func(url string) (*httptest.ResponseRecorder, Dump) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", url, nil))
		var d Dump
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatalf("bad json from %s: %v", url, err)
			}
		}
		return rec, d
	}

	_, full := get("/debug/cost")
	if len(full.Kinds) != 3 || len(full.Volumes) != 2 {
		t.Errorf("unfiltered dump: %d kinds, %d volumes", len(full.Kinds), len(full.Volumes))
	}

	_, kd := get("/debug/cost?kind=objlease")
	if len(kd.Kinds) != 1 || kd.Kinds[0].Kind != "ObjLease" {
		t.Errorf("kind filter: %+v", kd.Kinds)
	}
	// Totals still cover everything.
	if kd.Totals.MessagesSent != 2 {
		t.Errorf("kind-filtered totals = %+v", kd.Totals)
	}

	_, vd := get("/debug/cost?volume=vol-b")
	if len(vd.Volumes) != 1 || vd.Volumes[0].Volume != "vol-b" {
		t.Errorf("volume filter: %+v", vd.Volumes)
	}
	if vd.Conns != nil {
		t.Error("volume filter kept the conn table")
	}

	rec, _ := get("/debug/cost?kind=NoSuchKind")
	if rec.Code != 400 {
		t.Errorf("unknown kind: status %d, want 400", rec.Code)
	}
}

// TestHistQuantiles pins the /debug/cost summary of a codec histogram: ns
// fields, quantiles at the shared histogram's resolution.
func TestHistQuantiles(t *testing.T) {
	var h metrics.Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	h.Observe(100 * time.Microsecond)
	s := summarize(&h)
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.P50Ns < 100 || s.P50Ns > 102 {
		t.Errorf("p50 = %dns", s.P50Ns)
	}
	if s.P99Ns < 100 || s.P99Ns > 102 {
		t.Errorf("p99 = %dns (99 of 100 observations are 100ns)", s.P99Ns)
	}
	if s.MaxNs != 100000 {
		t.Errorf("max = %dns", s.MaxNs)
	}
	if s.MeanNs != (99*100+100000)/100 {
		t.Errorf("mean = %dns", s.MeanNs)
	}
}

func TestHistEmptyAndNegative(t *testing.T) {
	var h metrics.Histogram
	if s := summarize(&h); s != nil {
		t.Errorf("empty summary = %+v, want it omitted", s)
	}
	h.Observe(-time.Second) // clamped, must not panic or corrupt
	if s := summarize(&h); s == nil || s.Count != 1 || s.MaxNs != 0 {
		t.Errorf("negative observation summary = %+v", s)
	}
}

func TestUnknownKindLandsInSlotZero(t *testing.T) {
	a := New("srv", testNow())
	a.Record(true, fakeKindMsg{}, 5, 0)
	d := a.Snapshot()
	// Slot 0 is not exported as a kind, but totals still see the frame.
	if len(d.Kinds) != 0 {
		t.Errorf("unknown kind exported: %+v", d.Kinds)
	}
	if d.Totals.MessagesSent != 1 || d.Totals.BytesSent != 5 {
		t.Errorf("totals = %+v", d.Totals)
	}
}

type fakeKindMsg struct{}

func (fakeKindMsg) Kind() wire.Kind  { return wire.Kind(200) }
func (fakeKindMsg) Sequence() uint64 { return 0 }
