package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerAndObserverAreSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	tr.Emit(Event{Type: EvObjLeaseGrant}) // must not panic

	var o *Observer
	if o.Tracing() {
		t.Error("nil observer reports tracing")
	}
	o.Emit(Event{Type: EvInvalSent}) // must not panic
	if o.Reg() != nil {
		t.Error("nil observer returned a registry")
	}
	if id := o.NewID(); id != 0 {
		t.Errorf("nil observer minted id %d", id)
	}
}

// TestSpanIDsDistinct: ids minted from many goroutines at once are nonzero
// and never repeat.
func TestSpanIDsDistinct(t *testing.T) {
	const goroutines, each = 8, 500
	o := &Observer{}
	ids := make([][]uint64, goroutines)
	var wg sync.WaitGroup
	for g := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ids[g] = append(ids[g], o.NewID())
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, mine := range ids {
		for _, id := range mine {
			if id == 0 || seen[id] {
				t.Fatalf("id %d zero or repeated", id)
			}
			seen[id] = true
		}
	}
}

func TestCountSink(t *testing.T) {
	cs := NewCountSink()
	tr := NewTracer(cs)
	if !tr.Enabled() {
		t.Fatal("tracer with sink not enabled")
	}
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Type: EvInvalSent})
	}
	tr.Emit(Event{Type: EvInvalAcked})
	if got := cs.Count(EvInvalSent); got != 3 {
		t.Errorf("Count(EvInvalSent) = %d, want 3", got)
	}
	if got := cs.Count(EvInvalAcked); got != 1 {
		t.Errorf("Count(EvInvalAcked) = %d, want 1", got)
	}
	if got := cs.Total(); got != 4 {
		t.Errorf("Total() = %d, want 4", got)
	}
}

func TestRingSinkWrapsAndOrders(t *testing.T) {
	ring := NewRingSink(4)
	for i := 1; i <= 6; i++ {
		ring.Observe(Event{Type: EvCacheRead, N: i})
	}
	got := ring.Snapshot()
	if len(got) != 4 {
		t.Fatalf("len(Snapshot) = %d, want 4", len(got))
	}
	for i, e := range got {
		if want := i + 3; e.N != want {
			t.Errorf("Snapshot[%d].N = %d, want %d", i, e.N, want)
		}
	}
	if ring.Total() != 6 {
		t.Errorf("Total = %d, want 6", ring.Total())
	}
}

func TestRingSinkConcurrent(t *testing.T) {
	ring := NewRingSink(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ring.Observe(Event{Type: EvCacheRead, N: i})
				_ = ring.Snapshot()
			}
		}()
	}
	wg.Wait()
	if ring.Total() != 1600 {
		t.Errorf("Total = %d, want 1600", ring.Total())
	}
}

func TestSlogSinkRendersFields(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTracer(NewSlogSink(logger, slog.LevelInfo))
	tr.Emit(Event{
		Type: EvWriteUnblocked, At: time.Now(), Node: "origin",
		Client: "c1", Object: "obj-1", Volume: "vol", N: 2, Dur: 30 * time.Millisecond,
	})
	out := buf.String()
	for _, want := range []string{"write-unblocked", "node=origin", "client=c1", "obj-1", "n=2", "dur=30ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("slog output missing %q in %q", want, out)
		}
	}
}

func TestFuncSink(t *testing.T) {
	var seen []EventType
	tr := NewTracer(FuncSink(func(e Event) { seen = append(seen, e.Type) }))
	tr.Emit(Event{Type: EvConnect})
	tr.Emit(Event{Type: EvDisconnect})
	if len(seen) != 2 || seen[0] != EvConnect || seen[1] != EvDisconnect {
		t.Errorf("seen = %v", seen)
	}
}

func TestEventStringNames(t *testing.T) {
	for ty := EventType(1); ty < numEventTypes; ty++ {
		if strings.HasPrefix(ty.String(), "event(") {
			t.Errorf("event type %d has no name", ty)
		}
	}
	if got := EventType(99).String(); got != "event(99)" {
		t.Errorf("unknown type = %q", got)
	}
	e := Event{Type: EvInvalSent, Node: "s", Client: "c", Object: "o", N: 1, Trace: 7}
	for _, want := range []string{"inval-sent", "client=c", "obj=o", "trace=7"} {
		if !strings.Contains(e.String(), want) {
			t.Errorf("Event.String() = %q missing %q", e.String(), want)
		}
	}
}

// TestSpanKindString: the phases of a traced operation are event types and
// keep the names they had as span kinds, so /debug/events?type= filters and
// dashboards written against the span names still match.
func TestSpanKindString(t *testing.T) {
	for ty, want := range map[EventType]string{EvWrite: "write", EvClientWrite: "client-write",
		EvRenewObject: "renew-object", EvRenewVolume: "renew-volume", EvRedial: "redial",
		EvWriteBlocked: "write-blocked", EvInvalSent: "inval-sent", EvWriteUnblocked: "write-unblocked"} {
		if ty.String() != want {
			t.Errorf("%d named %q, want %q", ty, ty, want)
		}
	}
}

// TestSpanRecorderNilSafe: the span path of a component without an observer,
// or with one whose tracer is absent, records nothing and never panics.
func TestSpanRecorderNilSafe(t *testing.T) {
	var o *Observer
	if id := o.NewID(); id != 0 {
		t.Errorf("nil observer minted id %d", id)
	}
	o.Emit(Event{Type: EvWrite, Trace: 1, Span: 1, Dur: time.Millisecond}) // must not panic

	untraced := &Observer{}
	if untraced.Tracing() {
		t.Error("observer without a tracer reports tracing")
	}
	untraced.Emit(Event{Type: EvWrite, Trace: untraced.NewID(), Span: untraced.NewID()}) // must not panic
}

// TestSpanRecorderConcurrent records spans through one observer into its ring
// from many goroutines while readers snapshot; run under -race this pins the
// span path end to end: id minting, Emit and the lock-free ring. No reader may
// see a torn span.
func TestSpanRecorderConcurrent(t *testing.T) {
	const writers, perWriter, size = 8, 500, 64
	ring := NewRingSink(size)
	o := &Observer{Tracer: NewTracer(ring)}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				trace := o.NewID()
				o.Emit(Event{Type: EvWrite, At: start, Node: "srv", Trace: trace, Span: trace,
					Dur: time.Duration(i) * time.Microsecond})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, e := range ring.Snapshot() {
				if e.Type != EvWrite || e.Span == 0 || e.Trace != e.Span {
					t.Errorf("torn span in snapshot: %v", e)
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(ring.Snapshot()); got != size {
		t.Errorf("full ring snapshot len = %d, want %d", got, size)
	}
	if ring.Total() != writers*perWriter {
		t.Errorf("total = %d, want %d", ring.Total(), writers*perWriter)
	}
}

// TestRegistryRejectsDuplicateRegistration: the registrations that take a
// callback or an outside histogram panic on a name already taken, where they
// used to replace the first registration silently.
func TestRegistryRejectsDuplicateRegistration(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc(`lease_x{node="a"}`, func() float64 { return 1 })
	r.RegisterHistogram("lease_y_seconds", r.Histogram("lease_z_seconds"))
	r.Histogram("lease_h")
	for name, register := range map[string]func(){
		"GaugeFunc":                         func() { r.GaugeFunc(`lease_x{node="a"}`, func() float64 { return 2 }) },
		"RegisterHistogram":                 func() { r.RegisterHistogram("lease_y_seconds", r.Histogram("lease_h")) },
		"RegisterHistogram after Histogram": func() { r.RegisterHistogram("lease_h", r.Histogram("lease_z_seconds")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a duplicate name did not panic", name)
				}
			}()
			register()
		}()
	}
}

func TestRegistryExportFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter(`lease_grants_total{kind="object"}`).Add(5)
	r.Counter(`lease_grants_total{kind="volume"}`).Add(2)
	r.Gauge("lease_connections").Set(3)
	r.GaugeFunc("lease_state_bytes", func() float64 { return 128 })
	h := r.Histogram("lease_ack_wait_seconds")
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	for _, want := range []string{
		"# TYPE lease_grants_total counter",
		`lease_grants_total{kind="object"} 5`,
		`lease_grants_total{kind="volume"} 2`,
		"# TYPE lease_connections gauge",
		"lease_connections 3",
		"lease_state_bytes 128",
		"# TYPE lease_ack_wait_seconds summary",
		`lease_ack_wait_seconds{quantile="0.5"}`,
		"lease_ack_wait_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Error("Counter(x) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("shared counter not shared")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("Histogram(h) returned distinct histograms")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Set(int64(i))
				r.Histogram("h").Observe(time.Duration(i) * time.Microsecond)
				var sink bytes.Buffer
				_ = r.WritePrometheus(&sink)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 800 {
		t.Errorf("counter = %d, want 800", got)
	}
}

func TestSplitName(t *testing.T) {
	cases := []struct{ in, family, labels string }{
		{"plain", "plain", ""},
		{`n{a="b"}`, "n", `a="b"`},
		{`n{a="b",c="d"}`, "n", `a="b",c="d"`},
	}
	for _, c := range cases {
		f, l := splitName(c.in)
		if f != c.family || l != c.labels {
			t.Errorf("splitName(%q) = %q,%q want %q,%q", c.in, f, l, c.family, c.labels)
		}
	}
}

// TestPrometheusFamilyGrouping is a regression test for the series sort
// order: '{' sorts after '_', so sorting by full name alone would split a
// family that has both bare and labeled series around its `_suffix`
// siblings (`lease_load`, `lease_load_peak`, `lease_load{...}`) and emit
// the family's TYPE header twice — invalid exposition format.
func TestPrometheusFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	r.Counter("lease_load").Add(1)
	r.Counter(`lease_load{node="a"}`).Add(2)
	r.Counter("lease_load_peak").Add(3)
	r.GaugeFunc(`lease_load_ratio{node="a"}`, func() float64 { return 4 })

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	seen := map[string]int{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			seen[strings.Fields(line)[2]]++
		}
	}
	for family, n := range seen {
		if n != 1 {
			t.Errorf("family %q has %d TYPE headers:\n%s", family, n, text)
		}
	}
	if len(seen) != 3 {
		t.Errorf("TYPE headers = %v, want the 3 families", seen)
	}
	// Labeled series sit directly under their family's header.
	idxHeader := strings.Index(text, "# TYPE lease_load counter")
	idxLabeled := strings.Index(text, `lease_load{node="a"} 2`)
	idxNext := strings.Index(text, "# TYPE lease_load_peak")
	if idxHeader < 0 || idxLabeled < idxHeader || idxLabeled > idxNext {
		t.Errorf("labeled series outside its family block:\n%s", text)
	}

	// And the output is deterministic scrape to scrape.
	var again bytes.Buffer
	if err := r.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Errorf("scrape output not deterministic:\n--- first\n%s\n--- second\n%s", text, again.String())
	}
}

// TestSummaryQuantileLabels pins the exported quantile set, p95 included.
func TestSummaryQuantileLabels(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lease_ack_wait_seconds")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"0.5", "0.9", "0.95", "0.99"} {
		if !strings.Contains(prom.String(), `lease_ack_wait_seconds{quantile="`+q+`"}`) {
			t.Errorf("prometheus output missing quantile %s:\n%s", q, prom.String())
		}
	}
	for _, want := range []string{"lease_ack_wait_seconds_sum 5.05\n", "lease_ack_wait_seconds_count 100\n"} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
}
