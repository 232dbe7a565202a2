// Package sim implements the trace-driven cache-consistency simulator of
// Section 4.1: a sequential event processor that feeds timestamped read and
// write events to a pluggable consistency algorithm and records the number
// and size of messages sent by each server and client, as well as the size
// of the consistency state maintained at each server.
//
// Like the paper's simulator, it processes each trace event completely
// before the next one (no concurrency), assumes infinitely large caches, and
// maintains consistency on whole files.
//
// Unlike the paper's simulator, ours also runs an exact timer queue so that
// lease expirations adjust server-state accounting at the instant they
// happen rather than lazily; this makes the time-weighted state averages of
// Figures 6 and 7 exact.
package sim

import (
	"container/heap"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// CtrlBytes is the size charged for a control message (requests, grants,
// invalidations, acks). The exact value only scales the byte metric; the
// paper reports that byte results track message results.
const CtrlBytes = 40

// LeaseRecordBytes is the server-state charge for one lease, callback
// record, or queued invalidation message, per Section 5.2 ("we charge the
// servers 16 bytes"): core's record size, which Volume and Delay's state
// (core.Table.Stats) is counted in.
const LeaseRecordBytes = core.RecordBytes

// DataBytes is the size charged for a message carrying an object payload.
func DataBytes(objSize int64) int64 { return CtrlBytes + objSize }

// Algorithm is a consistency algorithm under simulation. Implementations
// receive every trace event in time order and account their message and
// state costs through the Env they were constructed with.
type Algorithm interface {
	// Name identifies the algorithm and its parameters, e.g. "Volume(10,1000)".
	Name() string
	// HandleRead processes a client cache read.
	HandleRead(now time.Time, e trace.Event)
	// HandleWrite processes a server-side object modification.
	HandleWrite(now time.Time, e trace.Event)
}

// Env gives algorithms access to measurement and the simulator's timer
// queue.
type Env struct {
	Rec *metrics.Recorder
	eng *Engine
}

// Schedule registers fn to run at time at. The engine fires timers in time
// order interleaved with trace events. Scheduling in the past fires the
// timer before the next event is dispatched.
func (env *Env) Schedule(at time.Time, fn func(now time.Time)) {
	heap.Push(&env.eng.timers, &timer{at: at, seq: env.eng.seq, fn: fn})
	env.eng.seq++
}

// Engine drives a trace through an algorithm.
type Engine struct {
	timers timerHeap
	seq    uint64
	env    Env
}

// NewEngine returns an engine whose Env records into rec.
func NewEngine(rec *metrics.Recorder) *Engine {
	eng := &Engine{}
	eng.env = Env{Rec: rec, eng: eng}
	return eng
}

// Env returns the environment to construct algorithms with.
func (eng *Engine) Env() *Env { return &eng.env }

// Result summarizes a simulation run.
type Result struct {
	Algorithm string
	Events    int
	End       time.Time // time of the last processed event or timer
}

// Run feeds tr (which must be sorted by time) through algo. It returns an
// error if the trace is unsorted or contains invalid events.
func (eng *Engine) Run(tr trace.Trace, algo Algorithm) (Result, error) {
	var last time.Time
	for i, e := range tr {
		if err := e.Validate(); err != nil {
			return Result{}, fmt.Errorf("sim: event %d: %w", i, err)
		}
		if i > 0 && e.Time.Before(last) {
			return Result{}, fmt.Errorf("sim: trace unsorted at event %d (%v before %v)",
				i, e.Time, last)
		}
		last = e.Time
		eng.fireTimersThrough(e.Time)
		switch e.Op {
		case trace.OpRead:
			algo.HandleRead(e.Time, e)
		case trace.OpWrite:
			algo.HandleWrite(e.Time, e)
		}
	}
	// Drain remaining timers so lease-expiry state accounting completes.
	end := last
	for eng.timers.Len() > 0 {
		t := heap.Pop(&eng.timers).(*timer)
		if t.at.After(end) {
			end = t.at
		}
		t.fn(t.at)
	}
	return Result{Algorithm: algo.Name(), Events: len(tr), End: end}, nil
}

// fireTimersThrough pops and runs every timer with deadline <= t, in
// deadline order (FIFO among equal deadlines).
func (eng *Engine) fireTimersThrough(t time.Time) {
	for eng.timers.Len() > 0 {
		next := eng.timers[0]
		if next.at.After(t) {
			return
		}
		heap.Pop(&eng.timers)
		next.fn(next.at)
	}
}

type timer struct {
	at  time.Time
	seq uint64 // tie-break: FIFO among equal deadlines
	fn  func(now time.Time)
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// Simulate is a convenience wrapper: build an engine and recorder, construct
// the algorithm via mk, run the trace, and return the recorder and result.
func Simulate(tr trace.Trace, mk func(env *Env) Algorithm) (*metrics.Recorder, Result, error) {
	rec := metrics.NewRecorder()
	eng := NewEngine(rec)
	algo := mk(eng.Env())
	res, err := eng.Run(tr, algo)
	if err != nil {
		return nil, Result{}, err
	}
	return rec, res, nil
}
