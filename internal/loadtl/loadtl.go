// Package loadtl maintains a per-second load timeline for one live node —
// the runtime counterpart of the simulator's metrics.LoadHistogram. The
// paper's headline evaluation (Figures 7–9) is about time-correlated server
// load: the cost of server-driven consistency shows up as per-second
// message bursts after writes, not as averages. A Timeline is a sink of both
// of a node's streams — the transport's frames (transport.Tap: the message
// counts) and the protocol's events (obs.Sink: writes, grants, ack waits) —
// buckets them into a ring of 1-second slots, and exposes the result three
// ways: the /debug/load JSON dump, scrape-time lease_load_* gauges (peak,
// mean, burst ratio over a sliding window), and a cumulative histogram in
// the exact shape of the simulator's Figure 8/9 series so live and
// simulated load curves are directly comparable.
package loadtl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Second is one 1-second bucket of the timeline.
type Second struct {
	Unix int64 `json:"unix"`
	// Msgs counts every wire message the node sent or received this second.
	Msgs int64 `json:"msgs"`
	// ByKind breaks Msgs down by wire message kind (only nonzero entries).
	ByKind map[string]int64 `json:"by_kind,omitempty"`
	// Writes counts committed writes.
	Writes int64 `json:"writes,omitempty"`
	// Grants counts object and volume lease grants.
	Grants int64 `json:"grants,omitempty"`
	// AckWaitNS sums the ack-collection waits of writes that unblocked this
	// second.
	AckWaitNS int64 `json:"ack_wait_ns,omitempty"`
}

// Burst summarizes the sliding window's burstiness: the paper's argument
// is precisely that Peak dwarfs Mean (most seconds are idle, then a write
// to a popular object lights up every connection at once).
type Burst struct {
	WindowSeconds int   `json:"window_seconds"`
	Peak          int64 `json:"peak_mps"`
	PeakUnix      int64 `json:"peak_unix,omitempty"`
	// Mean averages over every second of the window, idle ones included.
	Mean        float64 `json:"mean_mps"`
	BusySeconds int     `json:"busy_seconds"`
	IdleSeconds int     `json:"idle_seconds"`
	// Ratio is Peak/Mean (0 when the window is empty) — the burst factor.
	Ratio float64 `json:"peak_to_mean"`
}

// Dump is the full /debug/load payload, and the interchange format
// cmd/figures -live consumes.
type Dump struct {
	Node          string   `json:"node"`
	WindowSeconds int      `json:"window_seconds"`
	NowUnix       int64    `json:"now_unix"`
	Seconds       []Second `json:"seconds"`
	Burst         Burst    `json:"burst"`
}

// slot is one ring entry; sec identifies its current tenant second.
type slot struct {
	mu      sync.Mutex
	sec     int64
	byKind  [wire.NumKinds]int64
	msgs    int64
	writes  int64
	grants  int64
	ackWait int64
}

// Timeline buckets frames and protocol events into a ring of per-second
// slots. It implements obs.Sink and transport.Tap; attach it to the tracer
// feeding the node and to the node's network. All methods are safe for
// concurrent use — each slot has its own lock, so concurrent observations
// only contend when they land on the same second.
type Timeline struct {
	node  string
	now   func() time.Time
	slots []*slot
}

var (
	_ obs.Sink      = (*Timeline)(nil)
	_ transport.Tap = (*Timeline)(nil)
)

// New builds a timeline for node retaining window seconds of history
// (minimum 2: the current and the previous second). now supplies the clock
// for Snapshot/Burst windows and for events without a timestamp.
func New(node string, window int, now func() time.Time) *Timeline {
	if window < 2 {
		window = 2
	}
	if now == nil {
		now = time.Now
	}
	t := &Timeline{node: node, now: now, slots: make([]*slot, window)}
	for i := range t.slots {
		t.slots[i] = &slot{sec: -1}
	}
	return t
}

// Window reports the retained history in seconds.
func (t *Timeline) Window() int { return len(t.slots) }

// TapConn implements transport.Tap: every connection's frames land in the one
// timeline, stamped with the timeline's clock. A nil *Timeline taps nothing.
func (t *Timeline) TapConn(local, remote string) transport.Sink {
	if t == nil {
		return nil
	}
	return frameSink{t}
}

// frameSink is the Timeline's transport.Sink face; Observe is taken by obs.Sink.
type frameSink struct{ t *Timeline }

func (s frameSink) Observe(f transport.Frame) {
	s.t.add(s.t.now(), delta{msgs: 1, kind: f.Msg.Kind()})
}

// delta is what one observation adds to its second.
type delta struct {
	msgs, writes, grants, ackWait int64
	kind                          wire.Kind
}

// Observe implements obs.Sink, classifying the events the protocol layers
// already emit. It is called inline on protocol goroutines, so it does a
// bounded amount of work under a per-slot lock.
func (t *Timeline) Observe(e obs.Event) {
	var d delta
	switch e.Type {
	case obs.EvWriteApplied:
		d.writes = 1
	case obs.EvObjLeaseGrant, obs.EvVolLeaseGrant:
		d.grants = 1
	case obs.EvWriteUnblocked:
		d.ackWait = int64(e.Dur)
	default:
		return
	}
	at := e.At
	if at.IsZero() {
		at = t.now()
	}
	t.add(at, d)
}

func (t *Timeline) add(at time.Time, d delta) {
	sec := at.Unix()
	s := t.slots[int(uint64(sec)%uint64(len(t.slots)))]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sec != sec {
		if sec < s.sec {
			return // older than the slot's tenant; drop
		}
		s.sec = sec
		s.byKind = [wire.NumKinds]int64{}
		s.msgs, s.writes, s.grants, s.ackWait = 0, 0, 0, 0
	}
	s.msgs += d.msgs
	s.writes += d.writes
	s.grants += d.grants
	s.ackWait += d.ackWait
	if d.kind > 0 && int(d.kind) < len(s.byKind) {
		s.byKind[d.kind]++
	}
}

// Snapshot returns the busy seconds currently inside the window, oldest
// first.
func (t *Timeline) Snapshot() []Second {
	nowSec := t.now().Unix()
	oldest := nowSec - int64(len(t.slots)) + 1
	out := make([]Second, 0, len(t.slots))
	for _, s := range t.slots {
		s.mu.Lock()
		if s.sec < oldest || s.sec > nowSec || (s.msgs == 0 && s.writes == 0 && s.grants == 0 && s.ackWait == 0) {
			s.mu.Unlock()
			continue
		}
		sec := Second{
			Unix: s.sec, Msgs: s.msgs, Writes: s.writes,
			Grants: s.grants, AckWaitNS: s.ackWait,
		}
		for k, n := range s.byKind {
			if n > 0 {
				if sec.ByKind == nil {
					sec.ByKind = make(map[string]int64)
				}
				sec.ByKind[wire.Kind(k).String()] = n
			}
		}
		s.mu.Unlock()
		out = append(out, sec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Unix < out[j].Unix })
	return out
}

// BurstWindow computes burst statistics over the trailing win seconds
// (clamped to the retained window).
func (t *Timeline) BurstWindow(win int) Burst {
	if win < 1 || win > len(t.slots) {
		win = len(t.slots)
	}
	nowSec := t.now().Unix()
	oldest := nowSec - int64(win) + 1
	b := Burst{WindowSeconds: win}
	var total int64
	for _, s := range t.Snapshot() {
		if s.Unix < oldest {
			continue
		}
		if s.Msgs > 0 {
			b.BusySeconds++
		}
		total += s.Msgs
		if s.Msgs > b.Peak {
			b.Peak, b.PeakUnix = s.Msgs, s.Unix
		}
	}
	b.IdleSeconds = win - b.BusySeconds
	b.Mean = float64(total) / float64(win)
	if b.Mean > 0 {
		b.Ratio = float64(b.Peak) / b.Mean
	}
	return b
}

// Dump assembles the full timeline state.
func (t *Timeline) Dump() Dump {
	return Dump{
		Node:          t.node,
		WindowSeconds: len(t.slots),
		NowUnix:       t.now().Unix(),
		Seconds:       t.Snapshot(),
		Burst:         t.BurstWindow(0),
	}
}

// Register exports the sliding-window burst statistics as scrape-time
// gauges on reg, labeled by node:
//
//	lease_load_current_mps  — messages in the last completed second
//	lease_load_peak_mps     — busiest second in the window
//	lease_load_mean_mps     — window mean (idle seconds included)
//	lease_load_burst_ratio  — peak / mean
//	lease_load_busy_seconds — seconds with any message
//	lease_load_idle_seconds — seconds with none
//	lease_load_writes_total — writes committed inside the window
func (t *Timeline) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := fmt.Sprintf("{node=%q}", t.node)
	reg.GaugeFunc("lease_load_current_mps"+lbl, func() float64 {
		last := t.now().Unix() - 1
		for _, s := range t.Snapshot() {
			if s.Unix == last {
				return float64(s.Msgs)
			}
		}
		return 0
	})
	reg.GaugeFunc("lease_load_peak_mps"+lbl, func() float64 {
		return float64(t.BurstWindow(0).Peak)
	})
	reg.GaugeFunc("lease_load_mean_mps"+lbl, func() float64 {
		return t.BurstWindow(0).Mean
	})
	reg.GaugeFunc("lease_load_burst_ratio"+lbl, func() float64 {
		return t.BurstWindow(0).Ratio
	})
	reg.GaugeFunc("lease_load_busy_seconds"+lbl, func() float64 {
		return float64(t.BurstWindow(0).BusySeconds)
	})
	reg.GaugeFunc("lease_load_idle_seconds"+lbl, func() float64 {
		return float64(t.BurstWindow(0).IdleSeconds)
	})
	reg.GaugeFunc("lease_load_writes_total"+lbl, func() float64 {
		var n int64
		for _, s := range t.Snapshot() {
			n += s.Writes
		}
		return float64(n)
	})
}

// Handler serves the Dump as JSON — the /debug/load endpoint. ?window=30
// narrows the burst statistics (not the listed seconds) to the trailing 30
// seconds.
func (t *Timeline) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		d := t.Dump()
		if s := r.URL.Query().Get("window"); s != "" {
			var win int
			if _, err := fmt.Sscanf(s, "%d", &win); err != nil || win < 1 {
				http.Error(w, "window: want a positive number of seconds", http.StatusBadRequest)
				return
			}
			d.Burst = t.BurstWindow(win)
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(d)
	}
}

// Cumulative returns the dump's per-second loads as a cumulative histogram
// — for each distinct load x (ascending), the number of 1-second periods
// with load >= x. This is exactly the shape of the simulator's
// metrics.LoadHistogram.Cumulative, i.e. one Figure 8/9 curve.
func (d Dump) Cumulative() (loads []int64, periods []int) {
	counts := make([]int64, 0, len(d.Seconds))
	for _, s := range d.Seconds {
		if s.Msgs > 0 {
			counts = append(counts, s.Msgs)
		}
	}
	if len(counts) == 0 {
		return nil, nil
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	for i, n := range counts {
		if i == 0 || n != counts[i-1] {
			loads = append(loads, n)
			periods = append(periods, len(counts)-i)
		}
	}
	return loads, periods
}
