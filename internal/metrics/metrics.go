// Package metrics implements the measurement infrastructure the paper's
// evaluation relies on: message and byte counters (Figure 5), time-weighted
// tracking of per-server consistency state in bytes (Figures 6 and 7),
// per-second load histograms (Figures 8 and 9), and stale-read accounting
// for the Poll algorithms.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// MsgClass classifies a consistency-protocol message for reporting. The
// classes follow the message types of the paper's Figures 3 and 4.
type MsgClass int

// Message classes. Data responses are counted separately from control
// traffic so byte accounting can distinguish "network bytes" from "control
// messages" the way Section 5.1 does.
const (
	MsgReadValidate   MsgClass = iota + 1 // client poll / validation request
	MsgObjLeaseReq                        // REQ_OBJ_LEASE
	MsgObjLease                           // OBJ_LEASE grant (possibly with data)
	MsgVolLeaseReq                        // REQ_VOL_LEASE
	MsgVolLease                           // VOL_LEASE grant
	MsgInvalidate                         // INVALIDATE
	MsgAckInvalidate                      // ACK_INVALIDATE
	MsgMustRenewAll                       // MUST_RENEW_ALL (reconnection)
	MsgRenewObjLeases                     // RENEW_OBJ_LEASES (reconnection)
	MsgInvalRenew                         // combined INVALIDATE+RENEW vector
	MsgData                               // object data payload
	numMsgClasses
)

var msgClassNames = [...]string{
	MsgReadValidate:   "read-validate",
	MsgObjLeaseReq:    "obj-lease-req",
	MsgObjLease:       "obj-lease",
	MsgVolLeaseReq:    "vol-lease-req",
	MsgVolLease:       "vol-lease",
	MsgInvalidate:     "invalidate",
	MsgAckInvalidate:  "ack-invalidate",
	MsgMustRenewAll:   "must-renew-all",
	MsgRenewObjLeases: "renew-obj-leases",
	MsgInvalRenew:     "inval-renew",
	MsgData:           "data",
}

// String returns the human-readable name of the class.
func (c MsgClass) String() string {
	if c > 0 && int(c) < len(msgClassNames) {
		return msgClassNames[c]
	}
	return fmt.Sprintf("msgclass(%d)", int(c))
}

// Classes lists every message class, for exporters that emit one series per
// class.
func Classes() []MsgClass {
	out := make([]MsgClass, 0, numMsgClasses-1)
	for c := MsgClass(1); c < numMsgClasses; c++ {
		out = append(out, c)
	}
	return out
}

// Counter accumulates message and byte counts, overall and per class.
// The zero value is ready to use. Counter is not safe for concurrent use;
// Recorder provides locking.
type Counter struct {
	Messages int64
	Bytes    int64
	ByClass  [numMsgClasses]int64
}

// Add records one message of class c carrying n bytes.
func (ctr *Counter) Add(c MsgClass, n int64) {
	ctr.Messages++
	ctr.Bytes += n
	if c > 0 && int(c) < len(ctr.ByClass) {
		ctr.ByClass[c]++
	}
}

// Merge folds other into ctr.
func (ctr *Counter) Merge(other Counter) {
	ctr.Messages += other.Messages
	ctr.Bytes += other.Bytes
	for i := range ctr.ByClass {
		ctr.ByClass[i] += other.ByClass[i]
	}
}

// LoadHistogram counts protocol messages sent or received by one server in
// each 1-second period, as needed for the cumulative load histograms of
// Figures 8 and 9. Periods are identified by the integral second since the
// trace epoch; seconds with zero messages are not stored. It is the paper's
// per-second message count, not a distribution of durations — latencies go
// in Histogram.
type LoadHistogram struct {
	buckets map[int64]int
}

// NewLoadHistogram returns an empty histogram.
func NewLoadHistogram() *LoadHistogram {
	return &LoadHistogram{buckets: make(map[int64]int)}
}

// Observe records n messages at time t.
func (h *LoadHistogram) Observe(t time.Time, n int) {
	if n <= 0 {
		return
	}
	h.buckets[t.Unix()] += n
}

// Peak reports the maximum messages observed in any single second.
func (h *LoadHistogram) Peak() int {
	peak := 0
	for _, n := range h.buckets {
		if n > peak {
			peak = n
		}
	}
	return peak
}

// BusySeconds reports the number of 1-second periods with at least one
// message.
func (h *LoadHistogram) BusySeconds() int { return len(h.buckets) }

// CumulativePoint reports the number of 1-second periods whose load was at
// least x messages — the y value of Figures 8 and 9 at x.
func (h *LoadHistogram) CumulativePoint(x int) int {
	count := 0
	for _, n := range h.buckets {
		if n >= x {
			count++
		}
	}
	return count
}

// Cumulative returns the full cumulative histogram as parallel slices: for
// each distinct observed load x (ascending), the number of periods with load
// ≥ x.
func (h *LoadHistogram) Cumulative() (loads, periods []int) {
	if len(h.buckets) == 0 {
		return nil, nil
	}
	counts := make([]int, 0, len(h.buckets))
	for _, n := range h.buckets {
		counts = append(counts, n)
	}
	sort.Ints(counts)
	distinct := make([]int, 0, len(counts))
	for i, n := range counts {
		if i == 0 || n != counts[i-1] {
			distinct = append(distinct, n)
		}
	}
	loads = distinct
	periods = make([]int, len(distinct))
	// counts is sorted ascending: the number of periods with load >= x is
	// len(counts) - (index of first count >= x).
	for i, x := range distinct {
		idx := sort.SearchInts(counts, x)
		periods[i] = len(counts) - idx
	}
	return loads, periods
}

// Merge folds other into h.
func (h *LoadHistogram) Merge(other *LoadHistogram) {
	for sec, n := range other.buckets {
		h.buckets[sec] += n
	}
}

// Clone returns an independent copy of the histogram.
func (h *LoadHistogram) Clone() *LoadHistogram {
	out := NewLoadHistogram()
	for sec, n := range h.buckets {
		out.buckets[sec] = n
	}
	return out
}

// StateTracker integrates a server's consistency-state size (bytes) over
// time so that the time-weighted average of Figures 6 and 7 can be reported.
// The tracker is driven by Set calls at monotonically non-decreasing times.
type StateTracker struct {
	started  bool
	start    time.Time
	last     time.Time
	lastSize int64
	integral float64 // byte·seconds
	peak     int64
}

// Set records that the state size became bytes at time t. Calls with t
// before the previous call's time are clamped to the previous time (the
// integral never runs backwards).
func (st *StateTracker) Set(t time.Time, bytes int64) {
	if !st.started {
		st.started = true
		st.start, st.last = t, t
		st.lastSize = bytes
		st.peak = bytes
		return
	}
	if t.After(st.last) {
		st.integral += float64(st.lastSize) * t.Sub(st.last).Seconds()
		st.last = t
	}
	st.lastSize = bytes
	if bytes > st.peak {
		st.peak = bytes
	}
}

// Adjust shifts the current state size by delta bytes at time t.
func (st *StateTracker) Adjust(t time.Time, delta int64) {
	st.Set(t, st.lastSize+delta)
}

// Current reports the most recently set state size.
func (st *StateTracker) Current() int64 { return st.lastSize }

// Peak reports the maximum state size ever set.
func (st *StateTracker) Peak() int64 { return st.peak }

// Average reports the time-weighted mean state size over [first Set, end].
// If end is after the last Set call, the final size is extended to end.
func (st *StateTracker) Average(end time.Time) float64 {
	if !st.started {
		return 0
	}
	integral := st.integral
	last := st.last
	if end.After(last) {
		integral += float64(st.lastSize) * end.Sub(last).Seconds()
		last = end
	}
	total := last.Sub(st.start).Seconds()
	if total <= 0 {
		return float64(st.lastSize)
	}
	return integral / total
}

// ServerStats aggregates every per-server measurement used by the paper.
type ServerStats struct {
	Counter Counter
	Load    *LoadHistogram
	State   StateTracker
}

// newServerStats returns zeroed stats.
func newServerStats() *ServerStats {
	return &ServerStats{Load: NewLoadHistogram()}
}

// Recorder collects all simulation measurements. It is safe for concurrent
// use so that the networked implementation can share it across connection
// goroutines.
type Recorder struct {
	mu         sync.Mutex
	totals     Counter
	perServer  map[string]*ServerStats
	reads      int64
	staleReads int64
	writes     int64
	writeDelay time.Duration // cumulative ack-wait delay across writes
	maxDelay   time.Duration
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{perServer: make(map[string]*ServerStats)}
}

// Message records one protocol message of class c and n bytes sent between
// a client and the named server at time t. Every message is charged to the
// server's load histogram whether inbound or outbound, matching the paper's
// "messages sent or received per second" metric.
func (r *Recorder) Message(server string, c MsgClass, n int64, t time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.totals.Add(c, n)
	ss := r.server(server)
	ss.Counter.Add(c, n)
	ss.Load.Observe(t, 1)
}

// server returns (creating if needed) the stats for name. mu must be held.
func (r *Recorder) server(name string) *ServerStats {
	ss, ok := r.perServer[name]
	if !ok {
		ss = newServerStats()
		r.perServer[name] = ss
	}
	return ss
}

// SetState records that the consistency state at server is now bytes large.
func (r *Recorder) SetState(server string, t time.Time, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.server(server).State.Set(t, bytes)
}

// AdjustState shifts the consistency state at server by delta bytes.
func (r *Recorder) AdjustState(server string, t time.Time, delta int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.server(server).State.Adjust(t, delta)
}

// Read records a client cache read; stale reports whether the data returned
// was stale (had been modified at the server without the client knowing).
func (r *Recorder) Read(stale bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reads++
	if stale {
		r.staleReads++
	}
}

// Write records a server write and the ack-wait delay it experienced.
func (r *Recorder) Write(delay time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writes++
	r.writeDelay += delay
	if delay > r.maxDelay {
		r.maxDelay = delay
	}
}

// Totals returns a copy of the global message counter.
func (r *Recorder) Totals() Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// Server returns a deep-copied snapshot of the named server's stats and
// whether the server has been observed. The copy is safe to read while the
// recorder keeps accumulating on other goroutines — live endpoints scrape
// it concurrently with the protocol.
func (r *Recorder) Server(name string) (*ServerStats, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss, ok := r.perServer[name]
	if !ok {
		return nil, false
	}
	return &ServerStats{
		Counter: ss.Counter,
		Load:    ss.Load.Clone(),
		State:   ss.State,
	}, true
}

// Servers returns the names of all observed servers, sorted by descending
// message count (most heavily loaded first), breaking ties by name.
func (r *Recorder) Servers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.perServer))
	for name := range r.perServer {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := r.perServer[names[i]], r.perServer[names[j]]
		if a.Counter.Messages != b.Counter.Messages {
			return a.Counter.Messages > b.Counter.Messages
		}
		return names[i] < names[j]
	})
	return names
}

// ReadStats reports total reads and how many returned stale data.
func (r *Recorder) ReadStats() (reads, stale int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reads, r.staleReads
}

// StaleRate reports the fraction of reads that returned stale data.
func (r *Recorder) StaleRate() float64 {
	reads, stale := r.ReadStats()
	if reads == 0 {
		return 0
	}
	return float64(stale) / float64(reads)
}

// WriteStats reports the number of writes, the mean ack-wait delay, and the
// maximum ack-wait delay.
func (r *Recorder) WriteStats() (writes int64, mean, max time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.writes == 0 {
		return 0, 0, 0
	}
	return r.writes, r.writeDelay / time.Duration(r.writes), r.maxDelay
}
