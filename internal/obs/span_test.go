package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanRecorderNilSafe(t *testing.T) {
	var r *SpanRecorder
	if id := r.NewID(); id != 0 {
		t.Errorf("nil recorder id = %d", id)
	}
	r.Record(Span{Kind: SpanWrite}) // must not panic
	if got := r.Snapshot(); got != nil {
		t.Errorf("nil recorder snapshot = %v", got)
	}
	if r.Total() != 0 {
		t.Error("nil recorder total nonzero")
	}

	var o *Observer
	if o.SpanRec() != nil {
		t.Error("nil observer returned a recorder")
	}
}

func TestSpanRecorderWraparound(t *testing.T) {
	r := NewSpanRecorder(4)
	base := time.Unix(1000, 0)
	for i := 0; i < 10; i++ {
		r.Record(Span{ID: uint64(i + 1), Kind: SpanWrite, Start: base.Add(time.Duration(i) * time.Second)})
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4 (ring size)", len(got))
	}
	// The ring must retain exactly the 4 newest, oldest first.
	for i, s := range got {
		if want := uint64(7 + i); s.ID != want {
			t.Errorf("snapshot[%d].ID = %d, want %d", i, s.ID, want)
		}
	}
}

func TestSpanIDsDistinct(t *testing.T) {
	r := NewSpanRecorder(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := r.NewID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d zero or repeated", id)
		}
		seen[id] = true
	}
}

// TestSpanRecorderConcurrent hammers one recorder from many goroutines —
// run under -race this is the lock-free ring's safety proof.
func TestSpanRecorderConcurrent(t *testing.T) {
	const writers, perWriter = 8, 500
	r := NewSpanRecorder(64)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(Span{
					Trace: r.NewID(), ID: r.NewID(), Kind: SpanKind(1 + i%int(numSpanKinds-1)),
					Node: "srv", Start: start, Dur: time.Duration(i) * time.Microsecond,
				})
			}
		}(w)
	}
	// Concurrent readers must never observe a torn span.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			for _, s := range r.Snapshot() {
				if s.ID == 0 {
					t.Error("snapshot returned a zero span")
					return
				}
			}
		}
	}()
	wg.Wait()
	<-done
	if got := len(r.Snapshot()); got != 64 {
		t.Errorf("full ring snapshot len = %d, want 64", got)
	}
	if r.Total() != writers*perWriter {
		t.Errorf("total = %d, want %d", r.Total(), writers*perWriter)
	}
}

// TestSpanRecorderConcurrentWraparound forces the cursor around a tiny ring
// many times while snapshots run — under -race this pins the hardest
// interleaving: Snapshot reading slots that writers are actively reusing.
// Every observed span must be intact (non-zero ID) and each goroutine's own
// spans must never appear out of per-writer order within one snapshot.
func TestSpanRecorderConcurrentWraparound(t *testing.T) {
	const writers, perWriter, ring = 4, 2000, 8
	r := NewSpanRecorder(ring)
	start := time.Unix(3000, 0)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Trace encodes the writer, ID the per-writer sequence.
				r.Record(Span{Trace: uint64(w + 1), ID: uint64(i + 1), Kind: SpanWrite, Node: "srv", Start: start})
			}
		}(w)
	}
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for g := 0; g < 2; g++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				last := make(map[uint64]uint64, writers)
				for _, s := range r.Snapshot() {
					if s.ID == 0 || s.Trace == 0 {
						t.Error("torn span in snapshot")
						return
					}
					if prev, ok := last[s.Trace]; ok && s.ID <= prev {
						t.Errorf("writer %d spans out of order: %d after %d", s.Trace, s.ID, prev)
						return
					}
					last[s.Trace] = s.ID
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	snaps.Wait()
	if got := r.Total(); got != writers*perWriter {
		t.Errorf("total = %d, want %d", got, writers*perWriter)
	}
	if got := len(r.Snapshot()); got != ring {
		t.Errorf("post-run snapshot len = %d, want %d", got, ring)
	}
}

// spansFromHandler queries a SpansHandler and decodes the JSON lines.
func spansFromHandler(t *testing.T, rec *SpanRecorder, query string) []SpanJSON {
	t.Helper()
	req := httptest.NewRequest("GET", "/debug/spans"+query, nil)
	w := httptest.NewRecorder()
	SpansHandler(rec)(w, req)
	if w.Code != 200 {
		t.Fatalf("GET /debug/spans%s = %d: %s", query, w.Code, w.Body.String())
	}
	var out []SpanJSON
	sc := bufio.NewScanner(strings.NewReader(w.Body.String()))
	for sc.Scan() {
		var js SpanJSON
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		out = append(out, js)
	}
	return out
}

func TestSpansHandlerFilters(t *testing.T) {
	rec := NewSpanRecorder(16)
	base := time.Unix(2000, 0)
	rec.Record(Span{Trace: 1, ID: 1, Kind: SpanWrite, Node: "srv", Object: "o1", Start: base, Dur: 40 * time.Millisecond})
	rec.Record(Span{Trace: 1, ID: 2, Parent: 1, Kind: SpanAckWait, Node: "srv", Start: base, Dur: 30 * time.Millisecond})
	rec.Record(Span{Trace: 2, ID: 3, Kind: SpanFanout, Node: "srv", Client: "c1", Start: base.Add(time.Second), Dur: time.Millisecond})

	if got := spansFromHandler(t, rec, ""); len(got) != 3 {
		t.Fatalf("unfiltered spans = %d, want 3", len(got))
	}
	got := spansFromHandler(t, rec, "?type=write")
	if len(got) != 1 || got[0].Kind != "write" || got[0].ID != 1 {
		t.Errorf("?type=write → %+v", got)
	}
	got = spansFromHandler(t, rec, "?type=write&type=fanout")
	if len(got) != 2 {
		t.Errorf("repeated type filter → %d spans, want 2", len(got))
	}
	got = spansFromHandler(t, rec, "?min_dur=25ms")
	if len(got) != 2 {
		t.Errorf("?min_dur=25ms → %d spans, want 2", len(got))
	}
	got = spansFromHandler(t, rec, "?trace=2")
	if len(got) != 1 || got[0].Trace != 2 {
		t.Errorf("?trace=2 → %+v", got)
	}
	// Bad parameters are 400s, not silent full dumps.
	req := httptest.NewRequest("GET", "/debug/spans?min_dur=fast", nil)
	w := httptest.NewRecorder()
	SpansHandler(rec)(w, req)
	if w.Code != 400 {
		t.Errorf("bad min_dur → %d, want 400", w.Code)
	}
	req = httptest.NewRequest("GET", "/debug/spans?trace=x", nil)
	w = httptest.NewRecorder()
	SpansHandler(rec)(w, req)
	if w.Code != 400 {
		t.Errorf("bad trace → %d, want 400", w.Code)
	}
}

// TestSpansHandlerConcurrent reads the endpoint while writers are active —
// under -race this pins the snapshot/record interleaving.
func TestSpansHandlerConcurrent(t *testing.T) {
	rec := NewSpanRecorder(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec.Record(Span{Trace: uint64(i + 1), ID: rec.NewID(), Kind: SpanWrite, Start: time.Now()})
			}
		}()
	}
	for i := 0; i < 20; i++ {
		spansFromHandler(t, rec, "")
		spansFromHandler(t, rec, "?type=write&min_dur=0s")
	}
	close(stop)
	wg.Wait()
}

func TestSpanKindString(t *testing.T) {
	if SpanWrite.String() != "write" || SpanAckWait.String() != "ack-wait" {
		t.Errorf("kind names wrong: %v %v", SpanWrite, SpanAckWait)
	}
	if got := SpanKind(99).String(); got != "span(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}
