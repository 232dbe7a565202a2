package cost

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// frames charges n frames of m through a connection's sink, sent and
// received alternately.
func frames(a *Accounting, m wire.Message, n int) {
	sink := a.TapConn("a:1", "b:2")
	for i := 0; i < n; i++ {
		sink.Observe(transport.Frame{Sent: i%2 == 0, Msg: m, Size: wire.Size(m)})
	}
}

func unix(sec int64) time.Time { return time.Unix(sec, 0) }

func TestTimelineBuckets(t *testing.T) {
	clk := clock.NewSimulated(unix(1000))
	a := New("srv", clk.Now)
	// Second 1000: a write burst, 3 invalidates out and 3 acks in.
	frames(a, wire.Invalidate{}, 3)
	frames(a, wire.AckInvalidate{}, 3)
	a.sample(unix(1001))
	// Second 1005: a quiet renewal.
	frames(a, wire.ReqVolLease{}, 1)
	a.sample(unix(1006))
	// In progress at 1009, not sampled yet.
	frames(a, wire.Hello{}, 1)
	clk.AdvanceTo(unix(1009))

	want := []Second{
		{Unix: 1000, Msgs: 6, ByKind: map[string]int64{"Invalidate": 3, "AckInvalidate": 3}},
		{Unix: 1005, Msgs: 1, ByKind: map[string]int64{"ReqVolLease": 1}},
		{Unix: 1009, Msgs: 1, ByKind: map[string]int64{"Hello": 1}},
	}
	if got := a.Seconds(); !reflect.DeepEqual(got, want) {
		t.Errorf("seconds = %+v, want %+v", got, want)
	}
	// The seconds are a view of the per-kind counters, not a second count.
	if tot := a.Totals(); tot.MessagesSent+tot.MessagesRecv != 8 {
		t.Errorf("totals = %+v, want 8 frames", tot)
	}
}

func TestTimelineBurstStats(t *testing.T) {
	clk := clock.NewSimulated(unix(1000))
	a := New("srv", clk.Now)
	frames(a, wire.Invalidate{}, 8)
	a.sample(unix(1001))
	frames(a, wire.ObjLease{}, 2)
	a.sample(unix(1005))
	clk.AdvanceTo(unix(1009))

	b := burst(a.Seconds(), 1009, 10)
	if b.WindowSeconds != 10 || b.Peak != 8 || b.PeakUnix != 1000 {
		t.Errorf("burst = %+v", b)
	}
	if b.BusySeconds != 2 || b.IdleSeconds != 8 {
		t.Errorf("busy/idle = %d/%d", b.BusySeconds, b.IdleSeconds)
	}
	if b.Mean != 1.0 || b.Ratio != 8.0 { // 10 msgs over 10 seconds
		t.Errorf("mean = %g, peak-to-mean = %g", b.Mean, b.Ratio)
	}
	// A trailing 3-second window misses both busy seconds.
	if got := burst(a.Seconds(), 1009, 3); got.Peak != 0 || got.Ratio != 0 {
		t.Errorf("trailing window = %+v", got)
	}
	if d := a.Snapshot(); d.WindowSeconds != Window || d.Burst.WindowSeconds != Window || d.Burst.Peak != 8 {
		t.Errorf("snapshot window %d, burst %+v", d.WindowSeconds, d.Burst)
	}
}

func TestTimelineWindowEviction(t *testing.T) {
	clk := clock.NewSimulated(unix(1000))
	a := New("srv", clk.Now)
	frames(a, wire.Hello{}, 1)
	a.sample(unix(1001))
	// Time moves past the window: the old second disappears although its
	// slot was never overwritten.
	clk.AdvanceTo(unix(1000 + Window + 1))
	if got := a.Seconds(); len(got) != 0 {
		t.Errorf("expired seconds still visible: %+v", got)
	}
	// A sample filed into the same ring slot replaces it.
	frames(a, wire.Hello{}, 2)
	a.sample(unix(1000 + Window + 1))
	if got := a.Seconds(); len(got) != 1 || got[0].Unix != 1000+Window || got[0].Msgs != 2 {
		t.Errorf("slot reuse = %+v", got)
	}
}

// TestRunSamplesEverySecond drives the sampler on a simulated clock: each
// second's frames are filed under that second, not lumped into the one in
// progress.
func TestRunSamplesEverySecond(t *testing.T) {
	clk := clock.NewSimulated(unix(2000))
	a := New("srv", clk.Now)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		a.Run(clk, stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()
	// The sampler has filed the previous second once it waits for the next.
	armed := func(at time.Time) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if d, ok := clk.NextDeadline(); ok && d.Equal(at) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("sampler never waited for %v", at)
			}
		}
	}
	for i, sec := range []int64{2000, 2001, 2002} {
		armed(unix(sec + 1))
		frames(a, wire.Hello{}, i+1)
		clk.AdvanceTo(unix(sec + 1))
	}
	armed(unix(2004))
	want := []Second{
		{Unix: 2000, Msgs: 1, ByKind: map[string]int64{"Hello": 1}},
		{Unix: 2001, Msgs: 2, ByKind: map[string]int64{"Hello": 2}},
		{Unix: 2002, Msgs: 3, ByKind: map[string]int64{"Hello": 3}},
	}
	if got := a.Seconds(); !reflect.DeepEqual(got, want) {
		t.Errorf("seconds = %+v, want %+v", got, want)
	}
}

func TestTimelineHandlerAndRegister(t *testing.T) {
	clk := clock.NewSimulated(unix(3000))
	a := New("srv-1", clk.Now)
	frames(a, wire.Invalidate{}, 5)
	a.sample(unix(3001))
	frames(a, wire.ObjLease{}, 1)
	a.sample(unix(3005))
	clk.AdvanceTo(unix(3005))

	get := func(url string) (int, Dump) {
		rec := httptest.NewRecorder()
		Handler(a)(rec, httptest.NewRequest("GET", url, nil))
		var d Dump
		if rec.Code == 200 {
			if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
				t.Fatalf("bad json from %s: %v", url, err)
			}
		}
		return rec.Code, d
	}
	if _, d := get("/debug/cost"); d.Node != "srv-1" || d.WindowSeconds != Window || len(d.Seconds) != 2 || d.Burst.Peak != 5 {
		t.Errorf("dump = %+v", d)
	}
	// ?window= narrows the burst summary, not the seconds.
	if _, d := get("/debug/cost?window=2"); d.Burst.WindowSeconds != 2 || d.Burst.Peak != 1 || len(d.Seconds) != 2 {
		t.Errorf("narrowed dump = %+v", d)
	}
	for _, bad := range []string{"x", "0"} {
		if code, _ := get("/debug/cost?window=" + bad); code != 400 {
			t.Errorf("window=%s: status %d, want 400", bad, code)
		}
	}

	// The gauges surface the same window.
	reg := obs.NewRegistry()
	a.Register(reg)
	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lease_load_peak_mps{node="srv-1"} 5`,
		`lease_load_current_mps{node="srv-1"} 1`, // the last completed second is 3004
		`lease_load_busy_seconds{node="srv-1"} 2`,
		`lease_load_idle_seconds{node="srv-1"} 298`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestTimelineConcurrent charges frames from many goroutines while the
// sampler files seconds and a reader snapshots them — the -race proof that
// the frame path and the ring share nothing unlocked — and no frame is lost
// or counted twice.
func TestTimelineConcurrent(t *testing.T) {
	clk := clock.NewSimulated(unix(5000))
	a := New("srv", clk.Now)
	msgs := []wire.Message{wire.Hello{}, wire.ReqObjLease{}, wire.ObjLease{}, wire.Invalidate{}, wire.AckInvalidate{}}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sink := a.TapConn("a:1", "b:2")
			for i := 0; i < 2000; i++ {
				sink.Observe(transport.Frame{Sent: true, Msg: msgs[i%len(msgs)]})
			}
		}()
	}
	for i := int64(1); i <= 100; i++ {
		a.sample(unix(5000 + i))
		a.Seconds()
	}
	wg.Wait()
	clk.AdvanceTo(unix(5200))
	var total int64
	for _, s := range a.Seconds() {
		total += s.Msgs
	}
	if total != 8*2000 {
		t.Errorf("seconds hold %d msgs, want %d", total, 8*2000)
	}
}
