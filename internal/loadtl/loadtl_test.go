package loadtl

import (
	"encoding/json"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeClock is a settable clock for deterministic windows.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

func at(sec int64) time.Time { return time.Unix(sec, 500) }

// frames moves the clock to sec and delivers n frames of m through the
// timeline's tap: a frame carries no timestamp, the timeline's clock stamps it.
func frames(tl *Timeline, clk *fakeClock, sec int64, m wire.Message, n int) {
	clk.Set(at(sec))
	sink := tl.TapConn("a:1", "b:2")
	for i := 0; i < n; i++ {
		sink.Observe(transport.Frame{Sent: i%2 == 0, Msg: m, Size: wire.Size(m)})
	}
}

func TestTimelineBuckets(t *testing.T) {
	clk := &fakeClock{}
	tl := New("srv", 60, clk.Now)
	// Second 1000: a write burst — 3 invalidates out, 3 acks in, 1 write.
	frames(tl, clk, 1000, wire.Invalidate{}, 3)
	frames(tl, clk, 1000, wire.AckInvalidate{}, 3)
	tl.Observe(obs.Event{Type: obs.EvWriteApplied, At: at(1000)})
	tl.Observe(obs.Event{Type: obs.EvWriteUnblocked, At: at(1000), Dur: 40 * time.Millisecond})
	// Second 1005: quiet renewals.
	frames(tl, clk, 1005, wire.ReqVolLease{}, 1)
	tl.Observe(obs.Event{Type: obs.EvVolLeaseGrant, At: at(1005)})
	// Untracked event types are ignored.
	tl.Observe(obs.Event{Type: obs.EvConnect, At: at(1005)})
	clk.Set(at(1009))

	secs := tl.Snapshot()
	if len(secs) != 2 {
		t.Fatalf("snapshot = %d seconds, want 2: %+v", len(secs), secs)
	}
	burst := secs[0]
	if burst.Unix != 1000 || burst.Msgs != 6 || burst.Writes != 1 {
		t.Errorf("burst second = %+v", burst)
	}
	if burst.ByKind["Invalidate"] != 3 || burst.ByKind["AckInvalidate"] != 3 {
		t.Errorf("by-kind = %v", burst.ByKind)
	}
	if burst.AckWaitNS != int64(40*time.Millisecond) {
		t.Errorf("ack wait = %d", burst.AckWaitNS)
	}
	quiet := secs[1]
	if quiet.Unix != 1005 || quiet.Msgs != 1 || quiet.Grants != 1 {
		t.Errorf("quiet second = %+v", quiet)
	}
}

func TestTimelineBurstStats(t *testing.T) {
	clk := &fakeClock{}
	tl := New("srv", 10, clk.Now)
	frames(tl, clk, 1000, wire.Invalidate{}, 8)
	frames(tl, clk, 1004, wire.ObjLease{}, 2)
	clk.Set(at(1009))

	b := tl.BurstWindow(0)
	if b.WindowSeconds != 10 || b.Peak != 8 || b.PeakUnix != 1000 {
		t.Errorf("burst = %+v", b)
	}
	if b.BusySeconds != 2 || b.IdleSeconds != 8 {
		t.Errorf("busy/idle = %d/%d", b.BusySeconds, b.IdleSeconds)
	}
	if b.Mean != 1.0 { // 10 msgs over 10 seconds
		t.Errorf("mean = %g", b.Mean)
	}
	if b.Ratio != 8.0 {
		t.Errorf("peak-to-mean = %g", b.Ratio)
	}
	// A trailing 3-second window misses both busy seconds.
	if got := tl.BurstWindow(3); got.Peak != 0 || got.Ratio != 0 {
		t.Errorf("trailing window = %+v", got)
	}
}

func TestTimelineWindowEviction(t *testing.T) {
	clk := &fakeClock{}
	tl := New("srv", 5, clk.Now)
	frames(tl, clk, 1000, wire.Hello{}, 1)
	// Time moves past the window: the old second must disappear even though
	// its slot was never overwritten.
	clk.Set(at(1010))
	if got := tl.Snapshot(); len(got) != 0 {
		t.Errorf("expired seconds still visible: %+v", got)
	}
	// A new frame reusing the same ring slot resets it.
	frames(tl, clk, 1010, wire.Hello{}, 1)
	got := tl.Snapshot()
	if len(got) != 1 || got[0].Unix != 1010 || got[0].Msgs != 1 {
		t.Errorf("slot reuse = %+v", got)
	}
	// Stale events older than the slot's tenant are dropped, not misfiled.
	tl.Observe(obs.Event{Type: obs.EvWriteApplied, At: at(1005)})
	if got := tl.Snapshot(); len(got) != 1 || got[0].Msgs != 1 || got[0].Writes != 0 {
		t.Errorf("stale event misfiled: %+v", got)
	}
}

func TestTimelineZeroTimeUsesClock(t *testing.T) {
	clk := &fakeClock{t: at(2000)}
	tl := New("srv", 5, clk.Now)
	tl.Observe(obs.Event{Type: obs.EvWriteApplied}) // zero At
	got := tl.Snapshot()
	if len(got) != 1 || got[0].Unix != 2000 || got[0].Writes != 1 {
		t.Errorf("zero-At event = %+v", got)
	}
}

func TestDumpCumulative(t *testing.T) {
	d := Dump{Seconds: []Second{
		{Unix: 1, Msgs: 3}, {Unix: 2, Msgs: 1}, {Unix: 3, Msgs: 3},
		{Unix: 4, Msgs: 7}, {Unix: 5}, // zero-load second excluded
	}}
	loads, periods := d.Cumulative()
	wantLoads := []int64{1, 3, 7}
	wantPeriods := []int{4, 3, 1}
	if len(loads) != len(wantLoads) {
		t.Fatalf("loads = %v", loads)
	}
	for i := range wantLoads {
		if loads[i] != wantLoads[i] || periods[i] != wantPeriods[i] {
			t.Errorf("cumulative[%d] = (%d, %d), want (%d, %d)",
				i, loads[i], periods[i], wantLoads[i], wantPeriods[i])
		}
	}
	if l, p := (Dump{}).Cumulative(); l != nil || p != nil {
		t.Errorf("empty dump cumulative = %v %v", l, p)
	}
}

func TestTimelineHandlerAndRegister(t *testing.T) {
	clk := &fakeClock{}
	tl := New("srv-1", 30, clk.Now)
	frames(tl, clk, 3000, wire.Invalidate{}, 5)
	tl.Observe(obs.Event{Type: obs.EvWriteApplied, At: at(3000)})
	frames(tl, clk, 3004, wire.ObjLease{}, 1)
	clk.Set(at(3005))

	req := httptest.NewRequest("GET", "/debug/load", nil)
	w := httptest.NewRecorder()
	tl.Handler()(w, req)
	if w.Code != 200 {
		t.Fatalf("GET /debug/load = %d", w.Code)
	}
	var d Dump
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad dump: %v", err)
	}
	if d.Node != "srv-1" || d.WindowSeconds != 30 || len(d.Seconds) != 2 {
		t.Errorf("dump = %+v", d)
	}
	if d.Burst.Peak != 5 {
		t.Errorf("dump burst = %+v", d.Burst)
	}

	// ?window= narrows the burst stats.
	req = httptest.NewRequest("GET", "/debug/load?window=2", nil)
	w = httptest.NewRecorder()
	tl.Handler()(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	if d.Burst.WindowSeconds != 2 || d.Burst.Peak != 1 {
		t.Errorf("narrowed burst = %+v", d.Burst)
	}
	req = httptest.NewRequest("GET", "/debug/load?window=x", nil)
	w = httptest.NewRecorder()
	tl.Handler()(w, req)
	if w.Code != 400 {
		t.Errorf("bad window = %d, want 400", w.Code)
	}

	// Registered gauges surface the same stats.
	reg := obs.NewRegistry()
	tl.Register(reg)
	var buf httptest.ResponseRecorder
	_ = buf
	var sb []byte
	{
		w := httptest.NewRecorder()
		obs.Handler(reg, nil).ServeHTTP(w, httptest.NewRequest("GET", "/debug/vars", nil))
		sb = w.Body.Bytes()
	}
	var vars map[string]any
	if err := json.Unmarshal(sb, &vars); err != nil {
		t.Fatal(err)
	}
	if got := vars[`lease_load_peak_mps{node="srv-1"}`]; got != 5.0 {
		t.Errorf("lease_load_peak_mps = %v", got)
	}
	if got := vars[`lease_load_current_mps{node="srv-1"}`]; got != 1.0 {
		t.Errorf("lease_load_current_mps = %v (last completed second is 3004)", got)
	}
	if got := vars[`lease_load_writes_total{node="srv-1"}`]; got != 1.0 {
		t.Errorf("lease_load_writes_total = %v", got)
	}
}

// TestTimelineConcurrent hammers one timeline from many goroutines while a
// reader snapshots — the -race proof for the per-slot locking.
func TestTimelineConcurrent(t *testing.T) {
	clk := &fakeClock{t: at(5003)} // covers every second the writers touch
	tl := New("srv", 8, clk.Now)
	msgs := []wire.Message{wire.Hello{}, wire.ReqObjLease{}, wire.ObjLease{}, wire.Invalidate{}, wire.AckInvalidate{}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sink := tl.TapConn("a:1", "b:2")
			for i := 0; i < 2000; i++ {
				// Frames land on the clock's second, events on their own.
				sink.Observe(transport.Frame{Sent: true, Msg: msgs[i%len(msgs)]})
				tl.Observe(obs.Event{Type: obs.EvObjLeaseGrant, At: at(5000 + int64(i%4))})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tl.Snapshot()
			tl.BurstWindow(0)
		}
	}()
	wg.Wait()
	<-done
	var total, grants int64
	for _, s := range tl.Snapshot() {
		total += s.Msgs
		grants += s.Grants
	}
	if total != 8*2000 || grants != 8*2000 {
		t.Errorf("total msgs = %d, grants = %d, want %d each", total, grants, 8*2000)
	}
}
