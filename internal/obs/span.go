package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// SpanKind classifies the phases of a traced operation. The write path is
// the interesting one: a server root span (SpanWrite) decomposes into the
// per-object serialization wait, one fan-out span per client connection the
// invalidation was pushed to, and the ack-collection wait — exactly the
// three places the paper's min(t, t_v) write latency can go.
type SpanKind uint8

// Span kinds.
const (
	// SpanWrite: server-side root span of one write, from request arrival
	// to the committed reply.
	SpanWrite SpanKind = iota + 1
	// SpanSerialize: the wait for the per-object write slot (two writes to
	// the same object serialize; this is the queueing delay).
	SpanSerialize
	// SpanFanout: one connection's invalidation push (N = batch size).
	SpanFanout
	// SpanAckWait: the blocking wait for invalidation acknowledgments,
	// bounded by min(t, t_v).
	SpanAckWait
	// SpanClientWrite: client-side span of a write RPC, parent of the
	// server's SpanWrite.
	SpanClientWrite
	// SpanRenewObject: client-side object lease request/renewal RPC.
	SpanRenewObject
	// SpanRenewVolume: client-side volume lease renewal, including any
	// InvalRenew or MUST_RENEW_ALL rounds it triggered (N = messages).
	SpanRenewVolume
	// SpanRedial: client-side transparent reconnection (N = dial attempts).
	SpanRedial
	numSpanKinds
)

var spanKindNames = [...]string{
	SpanWrite:       "write",
	SpanSerialize:   "serialize-wait",
	SpanFanout:      "fanout",
	SpanAckWait:     "ack-wait",
	SpanClientWrite: "client-write",
	SpanRenewObject: "renew-object",
	SpanRenewVolume: "renew-volume",
	SpanRedial:      "redial",
}

// String names the span kind.
func (k SpanKind) String() string {
	if k > 0 && int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Span is one completed timed phase of a traced operation. Trace groups
// every span of one causal chain (one client write and everything it
// triggered, across processes); Parent is the SpanID of the span that
// caused this one (0 for a root). Spans are recorded on completion, so
// children of a root land in the recorder before it.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Kind   SpanKind
	// Node names the recording component (server, proxy, or client id).
	Node string
	// Client is the peer the span concerns (fan-out target, acking client).
	Client core.ClientID
	Object core.ObjectID
	Volume core.VolumeID
	Start  time.Time
	Dur    time.Duration
	// N carries a count payload (fan-out batch size, dial attempts, rounds).
	N int
}

// End returns the span's completion time.
func (s Span) End() time.Time { return s.Start.Add(s.Dur) }

// SpanRecorder retains the most recent completed spans in a Ring, so
// concurrent protocol goroutines record without ever contending on a mutex;
// the ring's one allocation per span is only paid when a recorder is
// attached.
//
// A nil *SpanRecorder is a valid, disabled recorder: every method is a nil
// check, which is the zero-overhead fast path the instrumented write path
// relies on (see BenchmarkSpanDisabled).
type SpanRecorder struct {
	ring *Ring[Span]
	ids  atomic.Uint64
}

// NewSpanRecorder returns a ring retaining up to size spans (min 1). Every
// trace is recorded.
func NewSpanRecorder(size int) *SpanRecorder {
	return &SpanRecorder{ring: NewRing[Span](size)}
}

// NewID returns a fresh nonzero trace/span id (0 on a nil recorder). Ids
// are process-local; cross-process spans share a trace because the trace id
// travels in the wire.TraceContext, not because recorders coordinate.
func (r *SpanRecorder) NewID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// Record stores a completed span. Safe on a nil recorder and from any
// number of goroutines. The nil check lives in this inlinable wrapper so
// the disabled path never reaches record, whose parameter escapes into the
// ring — keeping untraced call sites allocation-free.
func (r *SpanRecorder) Record(s Span) {
	if r == nil {
		return
	}
	r.record(s)
}

func (r *SpanRecorder) record(s Span) { r.ring.Add(s) }

// Total reports how many spans were ever recorded (including overwritten).
func (r *SpanRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.ring.Total()
}

// Snapshot returns the retained spans ordered by start time (ties broken by
// id).
func (r *SpanRecorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := r.ring.Snapshot()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SpanJSON is the JSON form of a Span, as served by /debug/spans and
// embedded in flight-recorder dumps.
type SpanJSON struct {
	Trace  uint64    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Kind   string    `json:"kind"`
	Node   string    `json:"node,omitempty"`
	Client string    `json:"client,omitempty"`
	Object string    `json:"object,omitempty"`
	Volume string    `json:"volume,omitempty"`
	Start  time.Time `json:"start"`
	DurNS  int64     `json:"dur_ns"`
	N      int       `json:"n,omitempty"`
}

// JSON renders the span in its JSON form.
func (s Span) JSON() SpanJSON {
	return SpanJSON{
		Trace: s.Trace, ID: s.ID, Parent: s.Parent,
		Kind: s.Kind.String(), Node: s.Node,
		Client: string(s.Client), Object: string(s.Object),
		Volume: string(s.Volume), Start: s.Start,
		DurNS: int64(s.Dur), N: s.N,
	}
}

// SpansHandler serves a span recorder's retained spans as JSON lines,
// oldest first — the /debug/spans endpoint. Two query parameters narrow
// busy recorders:
//
//	?type=write|fanout|...  — only spans of that kind (repeatable)
//	?min_dur=5ms            — only spans at least that long
//	?trace=123              — only spans of that trace id
func SpansHandler(rec *SpanRecorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		kinds := make(map[string]bool)
		for _, k := range q["type"] {
			kinds[k] = true
		}
		var minDur time.Duration
		if s := q.Get("min_dur"); s != "" {
			d, err := time.ParseDuration(s)
			if err != nil {
				http.Error(w, "min_dur: want a duration (5ms)", http.StatusBadRequest)
				return
			}
			minDur = d
		}
		var trace uint64
		if s := q.Get("trace"); s != "" {
			if _, err := fmt.Sscanf(s, "%d", &trace); err != nil || trace == 0 {
				http.Error(w, "trace: want a nonzero decimal id", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		for _, s := range rec.Snapshot() {
			if len(kinds) > 0 && !kinds[s.Kind.String()] {
				continue
			}
			if s.Dur < minDur {
				continue
			}
			if trace != 0 && s.Trace != trace {
				continue
			}
			if err := enc.Encode(s.JSON()); err != nil {
				return
			}
		}
	}
}
