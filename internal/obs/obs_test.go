package obs

import (
	"bytes"
	"encoding/json"
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
	e := Event{Type: EvInvalSent, Node: "s", Client: "c", Object: "o", N: 1}
	for _, want := range []string{"inval-sent", "client=c", "obj=o"} {
		if !strings.Contains(e.String(), want) {
			t.Errorf("Event.String() = %q missing %q", e.String(), want)
		}
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

	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(js.Bytes(), &vars); err != nil {
		t.Fatalf("vars JSON invalid: %v", err)
	}
	if got := vars[`lease_grants_total{kind="object"}`]; got != float64(5) {
		t.Errorf("JSON object grants = %v, want 5", got)
	}
	hist, ok := vars["lease_ack_wait_seconds"].(map[string]any)
	if !ok || hist["count"] != float64(2) {
		t.Errorf("JSON histogram = %v", vars["lease_ack_wait_seconds"])
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

// TestSummaryQuantileLabels pins the exported quantile set, p95 included,
// in both exposition formats.
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
	var js bytes.Buffer
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal(js.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	hist := vars["lease_ack_wait_seconds"].(map[string]any)
	keys := []string{"count", "sum_seconds", "mean", "p50", "p90", "p95", "p99", "max"}
	for _, k := range keys {
		if _, ok := hist[k].(float64); !ok {
			t.Errorf("JSON histogram missing %s: %v", k, hist)
		}
	}
	if len(hist) != len(keys) {
		t.Errorf("JSON histogram has %d fields, want exactly %v: %v", len(hist), keys, hist)
	}
	if hist["count"].(float64) != 100 || hist["max"].(float64) != 0.1 || hist["sum_seconds"].(float64) != 5.05 {
		t.Errorf("JSON histogram count/max/sum_seconds = %v/%v/%v, want 100/0.1/5.05", hist["count"], hist["max"], hist["sum_seconds"])
	}
	p90 := hist["p90"].(float64)
	p95 := hist["p95"].(float64)
	p99 := hist["p99"].(float64)
	if !(p90 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not monotone: p90=%g p95=%g p99=%g", p90, p95, p99)
	}
}
